package tcp

import (
	"reflect"
	"testing"

	"netkernel/internal/proto/ipv4"
)

var fuzzSrc = ipv4.Addr{10, 0, 0, 1}
var fuzzDst = ipv4.Addr{10, 0, 0, 2}

// FuzzTCPParse hammers the segment parser with arbitrary bytes. Parse
// must never panic, and any segment it accepts must round-trip: the
// parsed header re-marshalled and re-parsed yields the same header and
// payload.
func FuzzTCPParse(f *testing.F) {
	syn := Header{
		SrcPort: 40000, DstPort: 80, Seq: 0x1000, Flags: FlagSYN, Window: 65535,
		Opts: Options{MSS: 1460, WScaleOK: true, WScale: 7, SACKPermitted: true, TSOK: true, TSVal: 1, TSEcr: 0},
	}
	f.Add(syn.Marshal(fuzzSrc, fuzzDst, nil))
	data := Header{SrcPort: 80, DstPort: 40000, Seq: 7, Ack: 0x1001, Flags: FlagACK | FlagPSH, Window: 1024}
	f.Add(data.Marshal(fuzzSrc, fuzzDst, []byte("hello from the fuzz corpus")))
	sack := Header{
		SrcPort: 1, DstPort: 2, Seq: 3, Ack: 4, Flags: FlagACK, Window: 5,
		Opts: Options{SACK: [maxSACKOption]SACKBlock{{Start: 10, End: 20}, {Start: 30, End: 40}}, NumSACK: 2},
	}
	f.Add(sack.Marshal(fuzzSrc, fuzzDst, nil))
	f.Add([]byte{})
	f.Add(make([]byte, MinHeaderLen))

	f.Fuzz(func(t *testing.T, b []byte) {
		h, payload, err := Parse(fuzzSrc, fuzzDst, b)
		if err != nil {
			return
		}
		if len(payload) > len(b)-MinHeaderLen {
			t.Fatalf("payload of %d bytes from a %d-byte segment", len(payload), len(b))
		}
		rt := h.Marshal(fuzzSrc, fuzzDst, payload)
		h2, payload2, err := Parse(fuzzSrc, fuzzDst, rt)
		if err != nil {
			t.Fatalf("re-parse of accepted segment failed: %v", err)
		}
		if !reflect.DeepEqual(h, h2) {
			t.Fatalf("header round trip: %+v vs %+v", h, h2)
		}
		if string(payload) != string(payload2) {
			t.Fatalf("payload round trip changed %d bytes", len(payload))
		}
	})
}
