// Package inet holds helpers shared by the Internet protocol family:
// the RFC 1071 ones-complement checksum and the TCP/UDP pseudo-header.
package inet

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the RFC 1071 Internet checksum of data with the
// given initial partial sum (pass 0 unless folding in a pseudo-header).
//
// The hot loop adds four 64-bit words per iteration through one carry
// chain, loading them in little-endian order (a plain load on the
// machines this runs on) instead of swapping every word to network
// order: the ones-complement sum is the same whichever order the bytes
// of each 16-bit word are taken in, as long as the result is swapped
// back once (RFC 1071 §2(B), "byte order independence"), and a carry out
// of bit 63 is worth exactly 1 (2^64 ≡ 1 mod 0xffff), so it is added
// back in at the bottom.
func Checksum(data []byte, initial uint32) uint16 {
	var sum, c uint64
	for len(data) >= 32 {
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(data), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(data[8:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(data[16:]), c)
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(data[24:]), c)
		data = data[32:]
	}
	for len(data) >= 8 {
		sum, c = bits.Add64(sum, binary.LittleEndian.Uint64(data), c)
		data = data[8:]
	}
	// At most seven bytes remain. Which 16-bit lane of the accumulator a
	// word lands in does not matter (2^16 ≡ 1 too); a trailing odd byte
	// is the first byte of its word, which in this byte order is the low
	// one.
	if len(data) >= 4 {
		sum, c = bits.Add64(sum, uint64(binary.LittleEndian.Uint32(data)), c)
		data = data[4:]
	}
	if len(data) >= 2 {
		sum, c = bits.Add64(sum, uint64(binary.LittleEndian.Uint16(data)), c)
		data = data[2:]
	}
	if len(data) == 1 {
		sum, c = bits.Add64(sum, uint64(data[0]), c)
	}
	sum, c = bits.Add64(sum, 0, c)
	sum += c

	// Fold to 16 bits, swap into network order, then add the initial sum,
	// which the caller computed in network order.
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	sum = sum>>16 + sum&0xffff
	total := uint32(bits.ReverseBytes16(uint16(sum))) + initial>>16 + initial&0xffff
	total = total>>16 + total&0xffff
	total = total>>16 + total&0xffff
	return ^uint16(total)
}

// PseudoHeaderSum returns the partial sum of the IPv4 pseudo-header used
// by TCP and UDP checksums: source, destination, protocol, and segment
// length.
func PseudoHeaderSum(src, dst [4]byte, proto uint8, length int) uint32 {
	sum := uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// Verify reports whether data checksums to zero under the given initial
// partial sum, i.e. whether an embedded checksum field is consistent.
func Verify(data []byte, initial uint32) bool {
	return Checksum(data, initial) == 0
}
