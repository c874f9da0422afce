package inet

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"testing"
	"testing/quick"
)

func TestChecksumRFC1071Example(t *testing.T) {
	// Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 → checksum 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data, 0); got != 0x220d {
		t.Fatalf("Checksum = 0x%04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Trailing byte is padded with zero.
	odd := Checksum([]byte{0xab}, 0)
	even := Checksum([]byte{0xab, 0x00}, 0)
	if odd != even {
		t.Fatalf("odd %04x != padded even %04x", odd, even)
	}
}

func TestChecksumEmpty(t *testing.T) {
	if got := Checksum(nil, 0); got != 0xffff {
		t.Fatalf("Checksum(nil) = 0x%04x, want 0xffff", got)
	}
}

// Property: embedding the computed checksum makes the data verify.
func TestChecksumQuickSelfVerify(t *testing.T) {
	err := quick.Check(func(data []byte, a, b, c, d, e, f, g, h2 byte, proto uint8) bool {
		src := [4]byte{a, b, c, d}
		dst := [4]byte{e, f, g, h2}
		buf := make([]byte, 2+len(data))
		copy(buf[2:], data)
		ph := PseudoHeaderSum(src, dst, proto, len(buf))
		binary.BigEndian.PutUint16(buf, Checksum(buf, ph))
		return Verify(buf, ph)
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	data := make([]byte, 64)
	for i := range data {
		data[i] = byte(i * 7)
	}
	binary.BigEndian.PutUint16(data, 0)
	binary.BigEndian.PutUint16(data, Checksum(data, 0))
	if !Verify(data, 0) {
		t.Fatal("self-checksummed data does not verify")
	}
	data[33] ^= 0x40
	if Verify(data, 0) {
		t.Fatal("corruption not detected")
	}
}

// referenceChecksum is the textbook two-bytes-at-a-time RFC 1071 sum,
// kept as the oracle for the optimized wide-word implementation.
func referenceChecksum(data []byte, initial uint32) uint16 {
	sum := uint64(initial)
	n := len(data)
	i := 0
	for ; i+1 < n; i += 2 {
		sum += uint64(data[i])<<8 | uint64(data[i+1])
	}
	if i < n {
		sum += uint64(data[i]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

func TestChecksumMatchesReference(t *testing.T) {
	if err := quick.Check(func(data []byte, initial uint32) bool {
		return Checksum(data, initial&0xffff) == referenceChecksum(data, initial&0xffff)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Every length 0..64 (exercises all tail paths).
	buf := make([]byte, 64)
	for i := range buf {
		buf[i] = byte(i*37 + 11)
	}
	for n := 0; n <= 64; n++ {
		if Checksum(buf[:n], 7) != referenceChecksum(buf[:n], 7) {
			t.Fatalf("mismatch at length %d", n)
		}
	}
}

func TestPseudoHeaderSumOrderSensitivity(t *testing.T) {
	a := PseudoHeaderSum([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 6, 100)
	b := PseudoHeaderSum([4]byte{10, 0, 0, 2}, [4]byte{10, 0, 0, 1}, 6, 100)
	// Ones-complement addition is commutative, so swapping src/dst gives
	// the same sum — document the (standard) property.
	if a != b {
		t.Fatalf("pseudo-header sums differ: %x vs %x", a, b)
	}
	c := PseudoHeaderSum([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 17, 100)
	if a == c {
		t.Fatal("protocol change did not alter the sum")
	}
}

// FuzzChecksum holds the wide kernel to the textbook sum over arbitrary
// bytes, every sub-slice alignment and tail length the fuzzer finds, and
// non-zero initial sums (a full 32-bit one included: callers may pass an
// unfolded pseudo-header sum).
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint8(0), uint8(0))
	f.Add([]byte{0xab}, uint32(7), uint8(0), uint8(0))
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint32(0xffff), uint8(1), uint8(2))
	f.Add(bytes.Repeat([]byte{0xff}, 1480), uint32(0xffffffff), uint8(3), uint8(5))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x80}, 67), uint32(0x1fffe), uint8(7), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, initial uint32, head, tail uint8) {
		// Trim both ends so the kernel sees odd lengths and slices that
		// start off any alignment boundary.
		if h := int(head % 9); h <= len(data) {
			data = data[h:]
		}
		if tl := int(tail % 9); tl <= len(data) {
			data = data[:len(data)-tl]
		}
		if got, want := Checksum(data, initial), referenceChecksum(data, initial); got != want {
			t.Fatalf("Checksum(%d bytes, %#x) = %#04x, reference %#04x", len(data), initial, got, want)
		}
	})
}

var checksumSink uint16

func BenchmarkChecksum(b *testing.B) {
	// An IPv4 header, a small ICMP/RPC packet, a full TCP segment.
	for _, n := range []int{20, 84, 1480} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i*37 + 11)
		}
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				checksumSink = Checksum(data, 0x1234)
			}
		})
	}
}
