// Package udp implements the UDP header with pseudo-header
// checksumming.
package udp

import (
	"encoding/binary"
	"fmt"

	"netkernel/internal/proto/inet"
	"netkernel/internal/proto/ipv4"
)

// HeaderLen is the UDP header size.
const HeaderLen = 8

// Header is a decoded UDP header.
type Header struct {
	SrcPort uint16
	DstPort uint16
}

// Marshal serializes header + payload into a fresh datagram, computing
// the checksum over the IPv4 pseudo-header.
func (h *Header) Marshal(src, dst ipv4.Addr, payload []byte) []byte {
	b := make([]byte, HeaderLen+len(payload))
	h.MarshalInto(src, dst, b, payload)
	return b
}

// MarshalInto serializes into b, which must be exactly
// HeaderLen+len(payload) bytes, so a caller can build the datagram
// directly in a frame buffer.
func (h *Header) MarshalInto(src, dst ipv4.Addr, b, payload []byte) {
	if len(b) != HeaderLen+len(payload) {
		panic(fmt.Sprintf("udp: buffer %d for datagram %d+%d", len(b), HeaderLen, len(payload)))
	}
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint16(b[4:], uint16(len(b)))
	b[6], b[7] = 0, 0 // checksum placeholder
	copy(b[HeaderLen:], payload)
	sum := inet.Checksum(b, inet.PseudoHeaderSum(src, dst, ipv4.ProtoUDP, len(b)))
	if sum == 0 {
		sum = 0xffff // RFC 768: transmitted zero means "no checksum"
	}
	binary.BigEndian.PutUint16(b[6:], sum)
}

// Parse decodes and validates a datagram; payload aliases b.
func Parse(src, dst ipv4.Addr, b []byte) (Header, []byte, error) {
	if len(b) < HeaderLen {
		return Header{}, nil, fmt.Errorf("udp: datagram of %d bytes shorter than header", len(b))
	}
	length := int(binary.BigEndian.Uint16(b[4:]))
	if length < HeaderLen || length > len(b) {
		return Header{}, nil, fmt.Errorf("udp: length field %d outside datagram of %d", length, len(b))
	}
	if binary.BigEndian.Uint16(b[6:]) != 0 { // zero means sender skipped it
		if !inet.Verify(b[:length], inet.PseudoHeaderSum(src, dst, ipv4.ProtoUDP, length)) {
			return Header{}, nil, fmt.Errorf("udp: checksum mismatch")
		}
	}
	return Header{
		SrcPort: binary.BigEndian.Uint16(b[0:]),
		DstPort: binary.BigEndian.Uint16(b[2:]),
	}, b[HeaderLen:length], nil
}
