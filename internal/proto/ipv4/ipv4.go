// Package ipv4 implements the IPv4 header, checksumming, ECN codepoints,
// and fragmentation.
package ipv4

import (
	"encoding/binary"
	"fmt"

	"netkernel/internal/proto/inet"
)

// HeaderLen is the size of a header without options; the stack never
// emits options.
const HeaderLen = 20

// Protocol numbers carried in the Proto field.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
)

// ECN codepoints (the two low bits of the TOS byte).
const (
	ECNNotECT = 0 // not ECN-capable
	ECNECT1   = 1
	ECNECT0   = 2 // ECN-capable transport
	ECNCE     = 3 // congestion experienced
)

// Flags in the fragmentation field.
const (
	FlagDontFragment = 0x2
	FlagMoreFrags    = 0x1
)

// Addr is an IPv4 address.
type Addr [4]byte

func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IsZero reports whether the address is 0.0.0.0.
func (a Addr) IsZero() bool { return a == Addr{} }

// MustParseAddr parses dotted-quad notation, panicking on malformed
// input; it is intended for constants in tests and examples.
func MustParseAddr(s string) Addr {
	var a Addr
	var idx, val, digits int
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if digits == 0 || idx > 3 {
				panic("ipv4: malformed address " + s)
			}
			a[idx] = byte(val)
			idx++
			val, digits = 0, 0
			continue
		}
		c := s[i]
		if c < '0' || c > '9' {
			panic("ipv4: malformed address " + s)
		}
		val = val*10 + int(c-'0')
		if val > 255 {
			panic("ipv4: malformed address " + s)
		}
		digits++
	}
	if idx != 4 {
		panic("ipv4: malformed address " + s)
	}
	return a
}

// Header is a decoded IPv4 header.
type Header struct {
	TOS      uint8 // includes the ECN codepoint in the low 2 bits
	TotalLen uint16
	ID       uint16
	Flags    uint8  // DF / MF
	FragOff  uint16 // in 8-byte units
	TTL      uint8
	Proto    uint8
	Src      Addr
	Dst      Addr
}

// ECN returns the header's ECN codepoint.
func (h *Header) ECN() uint8 { return h.TOS & 0x3 }

// Marshal writes the header into b (at least HeaderLen bytes) and
// computes the header checksum. TotalLen must already be set.
func (h *Header) Marshal(b []byte) {
	_ = b[HeaderLen-1]
	b[0] = 4<<4 | 5 // version 4, IHL 5 words
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	binary.BigEndian.PutUint16(b[6:], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	csum := inet.Checksum(b[:HeaderLen], 0)
	binary.BigEndian.PutUint16(b[10:], csum)
}

// Parse decodes and validates a header from pkt, returning the payload
// (aliasing pkt, truncated to TotalLen).
func Parse(pkt []byte) (Header, []byte, error) {
	if len(pkt) < HeaderLen {
		return Header{}, nil, fmt.Errorf("ipv4: packet of %d bytes shorter than header", len(pkt))
	}
	if v := pkt[0] >> 4; v != 4 {
		return Header{}, nil, fmt.Errorf("ipv4: version %d", v)
	}
	ihl := int(pkt[0]&0xf) * 4
	if ihl < HeaderLen || len(pkt) < ihl {
		return Header{}, nil, fmt.Errorf("ipv4: bad IHL %d", ihl)
	}
	if !inet.Verify(pkt[:ihl], 0) {
		return Header{}, nil, fmt.Errorf("ipv4: header checksum mismatch")
	}
	var h Header
	h.TOS = pkt[1]
	h.TotalLen = binary.BigEndian.Uint16(pkt[2:])
	h.ID = binary.BigEndian.Uint16(pkt[4:])
	ff := binary.BigEndian.Uint16(pkt[6:])
	h.Flags = uint8(ff >> 13)
	h.FragOff = ff & 0x1fff
	h.TTL = pkt[8]
	h.Proto = pkt[9]
	copy(h.Src[:], pkt[12:16])
	copy(h.Dst[:], pkt[16:20])
	if int(h.TotalLen) < ihl || int(h.TotalLen) > len(pkt) {
		return Header{}, nil, fmt.Errorf("ipv4: total length %d outside packet of %d", h.TotalLen, len(pkt))
	}
	return h, pkt[ihl:h.TotalLen], nil
}

// SetCEInPlace flips an IPv4 packet's ECN codepoint to
// congestion-experienced, fixing the header checksum incrementally
// (RFC 1624). It reports false when the packet is not ECN-capable
// (NotECT), in which case it is left untouched — a router must not mark
// traffic that cannot carry the signal.
func SetCEInPlace(pkt []byte) bool {
	if len(pkt) < HeaderLen || pkt[0]>>4 != 4 {
		return false
	}
	old := pkt[1]
	if old&0x3 == ECNNotECT || old&0x3 == ECNCE {
		return old&0x3 == ECNCE
	}
	pkt[1] = old&^0x3 | ECNCE
	// Incremental checksum update: HC' = ~(~HC + ~m + m').
	hc := binary.BigEndian.Uint16(pkt[10:])
	oldWord := uint32(pkt[0])<<8 | uint32(old)
	newWord := uint32(pkt[0])<<8 | uint32(pkt[1])
	sum := uint32(^hc&0xffff) + (^oldWord & 0xffff) + newWord
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	binary.BigEndian.PutUint16(pkt[10:], ^uint16(sum))
	return true
}
