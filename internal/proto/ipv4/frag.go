package ipv4

import "fmt"

// Fragment splits payload into fully marshalled IPv4 packets that fit
// mtu (the link payload limit including the IP header). Offsets are in
// 8-byte units per RFC 791, so every fragment but the last carries a
// multiple of 8 payload bytes. A set DF flag on an oversized datagram is
// an error. The stack neither fragments nor reassembles (it drops any
// fragment it receives); Fragment remains for the benchmark ladder's
// ipv4 rung and as the tests' frame oracle.
func Fragment(h Header, payload []byte, mtu int) ([][]byte, error) {
	if mtu < HeaderLen+8 {
		return nil, fmt.Errorf("ipv4: mtu %d cannot carry a fragment", mtu)
	}
	if HeaderLen+len(payload) <= mtu {
		h.TotalLen = uint16(HeaderLen + len(payload))
		pkt := make([]byte, h.TotalLen)
		h.Marshal(pkt)
		copy(pkt[HeaderLen:], payload)
		return [][]byte{pkt}, nil
	}
	if h.Flags&FlagDontFragment != 0 {
		return nil, fmt.Errorf("ipv4: datagram of %d bytes needs fragmentation but DF is set", len(payload))
	}
	per := (mtu - HeaderLen) &^ 7
	var frags [][]byte
	for off := 0; off < len(payload); off += per {
		end := off + per
		last := end >= len(payload)
		if last {
			end = len(payload)
		}
		fh := h
		fh.FragOff = uint16(off / 8)
		if !last {
			fh.Flags |= FlagMoreFrags
		}
		fh.TotalLen = uint16(HeaderLen + end - off)
		pkt := make([]byte, fh.TotalLen)
		fh.Marshal(pkt)
		copy(pkt[HeaderLen:], payload[off:end])
		frags = append(frags, pkt)
	}
	return frags, nil
}
