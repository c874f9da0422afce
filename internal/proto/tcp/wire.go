// Package tcp implements the TCP wire format and a full event-driven
// TCP state machine with pluggable congestion control.
//
// This is the "network stack" a Network Stack Module hosts: the paper's
// prototype ports the Linux 4.9 TCP/IP stack including BBR (§4.1); here
// the equivalent from-scratch stack runs against a sim.Clock, in virtual
// time (see DESIGN.md §2 for the substitution).
package tcp

import (
	"encoding/binary"
	"fmt"

	"netkernel/internal/proto/inet"
	"netkernel/internal/proto/ipv4"
)

// MinHeaderLen is the TCP header size without options.
const MinHeaderLen = 20

// MaxHeaderLen bounds the header with options.
const MaxHeaderLen = 60

// Flags is the TCP flag byte plus the two ECN flags.
type Flags uint16

// TCP flags.
const (
	FlagFIN Flags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
	FlagECE // ECN echo
	FlagCWR // congestion window reduced
)

func (f Flags) String() string {
	names := []struct {
		bit  Flags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagFIN, "FIN"}, {FlagRST, "RST"}, {FlagPSH, "PSH"},
		{FlagACK, "ACK"}, {FlagURG, "URG"}, {FlagECE, "ECE"}, {FlagCWR, "CWR"},
	}
	s := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if s != "" {
				s += "|"
			}
			s += n.name
		}
	}
	if s == "" {
		return "none"
	}
	return s
}

// Options are the TCP options the stack understands.
type Options struct {
	// MSS advertises the maximum segment size (SYN only). 0 = absent.
	MSS uint16
	// WScale advertises the window scale shift (SYN only).
	WScale uint8
	// WScaleOK records whether the option was present.
	WScaleOK bool
	// SACKPermitted advertises selective-acknowledgment support (SYN).
	SACKPermitted bool
	// SACK holds received out-of-order ranges (data segments), the
	// first NumSACK of them valid. They ride in the header by value so
	// that building or parsing one allocates nothing and a copied Header
	// shares no memory with the original.
	SACK    [maxSACKOption]SACKBlock
	NumSACK int
	// TSVal and TSEcr carry RFC 7323 timestamps when TSOK.
	TSVal, TSEcr uint32
	TSOK         bool
}

// SACKBlock is one selective-acknowledgment range [Start, End).
type SACKBlock struct {
	Start, End uint32
}

// MaxSACKBlocks is the most blocks that fit alongside timestamps, and
// the most a connection sends.
const MaxSACKBlocks = 3

// maxSACKOption is the most blocks a peer can fit into the 40 option
// bytes, and so the most Parse keeps.
const maxSACKOption = 4

// SACKBlocks returns the valid blocks as a view into the header.
func (o *Options) SACKBlocks() []SACKBlock { return o.SACK[:o.NumSACK] }

// AddSACK appends a block; blocks beyond what an option area can carry
// are dropped.
func (o *Options) AddSACK(b SACKBlock) {
	if o.NumSACK < len(o.SACK) {
		o.SACK[o.NumSACK] = b
		o.NumSACK++
	}
}

// Header is a decoded TCP header.
type Header struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   Flags
	Window  uint16
	Urgent  uint16
	Opts    Options
}

func (h *Header) optLen() int {
	n := 0
	if h.Opts.MSS != 0 {
		n += 4
	}
	if h.Opts.WScaleOK {
		n += 3
	}
	if h.Opts.SACKPermitted {
		n += 2
	}
	if h.Opts.TSOK {
		n += 10
	}
	if h.Opts.NumSACK > 0 {
		n += 2 + 8*h.Opts.NumSACK
	}
	return (n + 3) &^ 3 // pad to 32-bit boundary
}

// Len returns the marshalled header length including options.
func (h *Header) Len() int { return MinHeaderLen + h.optLen() }

// Marshal serializes header + payload into a fresh segment, computing
// the checksum over the IPv4 pseudo-header. The stack builds segments in
// place with MarshalInto; this allocating form serves tests and tools.
func (h *Header) Marshal(src, dst ipv4.Addr, payload []byte) []byte {
	hl := h.Len()
	b := make([]byte, hl+len(payload))
	h.MarshalInto(src, dst, b, payload)
	return b
}

// MarshalInto serializes into b, which must be exactly Len()+len(payload)
// bytes. It lets callers serialize directly into a frame buffer.
func (h *Header) MarshalInto(src, dst ipv4.Addr, b, payload []byte) {
	hl := h.Len()
	if len(b) != hl+len(payload) {
		panic(fmt.Sprintf("tcp: buffer %d for segment %d+%d", len(b), hl, len(payload)))
	}
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint32(b[4:], h.Seq)
	binary.BigEndian.PutUint32(b[8:], h.Ack)
	b[12] = byte(hl/4) << 4
	b[13] = byte(h.Flags & 0xff)
	binary.BigEndian.PutUint16(b[14:], h.Window)
	b[16], b[17] = 0, 0 // checksum placeholder
	binary.BigEndian.PutUint16(b[18:], h.Urgent)

	o := b[MinHeaderLen:hl]
	i := 0
	if h.Opts.MSS != 0 {
		o[i], o[i+1] = 2, 4
		binary.BigEndian.PutUint16(o[i+2:], h.Opts.MSS)
		i += 4
	}
	if h.Opts.WScaleOK {
		o[i], o[i+1], o[i+2] = 3, 3, h.Opts.WScale
		i += 3
	}
	if h.Opts.SACKPermitted {
		o[i], o[i+1] = 4, 2
		i += 2
	}
	if h.Opts.TSOK {
		o[i], o[i+1] = 8, 10
		binary.BigEndian.PutUint32(o[i+2:], h.Opts.TSVal)
		binary.BigEndian.PutUint32(o[i+6:], h.Opts.TSEcr)
		i += 10
	}
	if n := h.Opts.NumSACK; n > 0 {
		o[i], o[i+1] = 5, byte(2+8*n)
		i += 2
		for _, blk := range h.Opts.SACKBlocks() {
			binary.BigEndian.PutUint32(o[i:], blk.Start)
			binary.BigEndian.PutUint32(o[i+4:], blk.End)
			i += 8
		}
	}
	for ; i < len(o); i++ {
		o[i] = 1 // NOP padding
	}

	copy(b[hl:], payload)
	csum := inet.Checksum(b, inet.PseudoHeaderSum(src, dst, ipv4.ProtoTCP, len(b)))
	binary.BigEndian.PutUint16(b[16:], csum)
}

// Parse decodes and validates a segment; payload aliases b.
func Parse(src, dst ipv4.Addr, b []byte) (Header, []byte, error) {
	if len(b) < MinHeaderLen {
		return Header{}, nil, fmt.Errorf("tcp: segment of %d bytes shorter than header", len(b))
	}
	hl := int(b[12]>>4) * 4
	if hl < MinHeaderLen || hl > len(b) {
		return Header{}, nil, fmt.Errorf("tcp: bad data offset %d", hl)
	}
	if !inet.Verify(b, inet.PseudoHeaderSum(src, dst, ipv4.ProtoTCP, len(b))) {
		return Header{}, nil, fmt.Errorf("tcp: checksum mismatch")
	}
	var h Header
	h.SrcPort = binary.BigEndian.Uint16(b[0:])
	h.DstPort = binary.BigEndian.Uint16(b[2:])
	h.Seq = binary.BigEndian.Uint32(b[4:])
	h.Ack = binary.BigEndian.Uint32(b[8:])
	h.Flags = Flags(b[13])
	h.Window = binary.BigEndian.Uint16(b[14:])
	h.Urgent = binary.BigEndian.Uint16(b[18:])

	o := b[MinHeaderLen:hl]
	for i := 0; i < len(o); {
		switch o[i] {
		case 0: // end of options
			i = len(o)
		case 1: // NOP
			i++
		default:
			if i+1 >= len(o) {
				return Header{}, nil, fmt.Errorf("tcp: truncated option")
			}
			l := int(o[i+1])
			if l < 2 || i+l > len(o) {
				return Header{}, nil, fmt.Errorf("tcp: bad option length %d", l)
			}
			body := o[i+2 : i+l]
			switch o[i] {
			case 2:
				if len(body) == 2 {
					h.Opts.MSS = binary.BigEndian.Uint16(body)
				}
			case 3:
				if len(body) == 1 {
					h.Opts.WScale = body[0]
					h.Opts.WScaleOK = true
				}
			case 4:
				h.Opts.SACKPermitted = true
			case 5:
				for j := 0; j+8 <= len(body); j += 8 {
					h.Opts.AddSACK(SACKBlock{
						Start: binary.BigEndian.Uint32(body[j:]),
						End:   binary.BigEndian.Uint32(body[j+4:]),
					})
				}
			case 8:
				if len(body) == 8 {
					h.Opts.TSVal = binary.BigEndian.Uint32(body)
					h.Opts.TSEcr = binary.BigEndian.Uint32(body[4:])
					h.Opts.TSOK = true
				}
			}
			i += l
		}
	}
	return h, b[hl:], nil
}
