package tcp

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"netkernel/internal/proto/ipv4"
)

var (
	srcAddr = ipv4.Addr{10, 0, 0, 1}
	dstAddr = ipv4.Addr{10, 0, 0, 2}
)

func TestMarshalParseBareHeader(t *testing.T) {
	h := Header{
		SrcPort: 43210, DstPort: 80,
		Seq: 0x01020304, Ack: 0x0a0b0c0d,
		Flags: FlagACK | FlagPSH, Window: 65535,
	}
	payload := []byte("GET / HTTP/1.1\r\n")
	seg := h.Marshal(srcAddr, dstAddr, payload)
	got, pl, err := Parse(srcAddr, dstAddr, seg)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != h.SrcPort || got.Seq != h.Seq || got.Ack != h.Ack || got.Flags != h.Flags || got.Window != h.Window {
		t.Fatalf("header = %+v", got)
	}
	if !bytes.Equal(pl, payload) {
		t.Fatalf("payload = %q", pl)
	}
	if len(seg) != MinHeaderLen+len(payload) {
		t.Fatalf("bare header serialized to %d bytes", len(seg))
	}
}

func TestMarshalParseSYNOptions(t *testing.T) {
	h := Header{
		SrcPort: 1, DstPort: 2, Seq: 100, Flags: FlagSYN, Window: 65535,
		Opts: Options{
			MSS: 1460, WScale: 9, WScaleOK: true, SACKPermitted: true,
			TSVal: 12345, TSEcr: 0, TSOK: true,
		},
	}
	seg := h.Marshal(srcAddr, dstAddr, nil)
	got, _, err := Parse(srcAddr, dstAddr, seg)
	if err != nil {
		t.Fatal(err)
	}
	o := got.Opts
	if o.MSS != 1460 || !o.WScaleOK || o.WScale != 9 || !o.SACKPermitted || !o.TSOK || o.TSVal != 12345 {
		t.Fatalf("options = %+v", o)
	}
}

func TestMarshalParseSACKBlocks(t *testing.T) {
	h := Header{
		SrcPort: 1, DstPort: 2, Seq: 1, Ack: 1000, Flags: FlagACK, Window: 100,
		Opts: Options{
			SACK:    [maxSACKOption]SACKBlock{{Start: 2000, End: 3000}, {Start: 4000, End: 4500}},
			NumSACK: 2,
			TSVal:   9, TSEcr: 8, TSOK: true,
		},
	}
	seg := h.Marshal(srcAddr, dstAddr, nil)
	got, _, err := Parse(srcAddr, dstAddr, seg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Opts.SACKBlocks(), h.Opts.SACKBlocks()) {
		t.Fatalf("SACK blocks = %+v", got.Opts.SACKBlocks())
	}
	if !got.Opts.TSOK || got.Opts.TSVal != 9 || got.Opts.TSEcr != 8 {
		t.Fatalf("timestamps lost alongside SACK: %+v", got.Opts)
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	h := Header{SrcPort: 1, DstPort: 2, Flags: FlagACK}
	seg := h.Marshal(srcAddr, dstAddr, []byte("data"))
	seg[MinHeaderLen] ^= 0x80
	if _, _, err := Parse(srcAddr, dstAddr, seg); err == nil {
		t.Fatal("corrupt segment accepted")
	}
	// Pseudo-header coverage.
	seg2 := h.Marshal(srcAddr, dstAddr, []byte("data"))
	if _, _, err := Parse(ipv4.Addr{1, 2, 3, 4}, dstAddr, seg2); err == nil {
		t.Fatal("segment accepted under wrong source address")
	}
}

func TestParseRejectsBadOffsets(t *testing.T) {
	if _, _, err := Parse(srcAddr, dstAddr, make([]byte, 10)); err == nil {
		t.Fatal("short segment accepted")
	}
	h := Header{SrcPort: 1, DstPort: 2, Flags: FlagACK}
	seg := h.Marshal(srcAddr, dstAddr, nil)
	seg[12] = 15 << 4 // data offset beyond segment
	if _, _, err := Parse(srcAddr, dstAddr, seg); err == nil {
		t.Fatal("bad data offset accepted")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	err := quick.Check(func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16, payload []byte, mss uint16, ws uint8, sack, ts bool, tsv, tse uint32) bool {
		if len(payload) > 8000 {
			payload = payload[:8000]
		}
		h := Header{
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: Flags(flags), Window: win,
			Opts: Options{MSS: mss, WScale: ws % 15, WScaleOK: ws%2 == 0, SACKPermitted: sack, TSOK: ts, TSVal: tsv, TSEcr: tse},
		}
		seg := h.Marshal(srcAddr, dstAddr, payload)
		got, pl, err := Parse(srcAddr, dstAddr, seg)
		if err != nil || !bytes.Equal(pl, payload) {
			return false
		}
		if got.SrcPort != sp || got.DstPort != dp || got.Seq != seq || got.Ack != ack || got.Flags != Flags(flags) || got.Window != win {
			return false
		}
		if got.Opts.MSS != mss || got.Opts.SACKPermitted != sack || got.Opts.TSOK != ts {
			return false
		}
		if ws%2 == 0 && (!got.Opts.WScaleOK || got.Opts.WScale != ws%15) {
			return false
		}
		if ts && (got.Opts.TSVal != tsv || got.Opts.TSEcr != tse) {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFlagsString(t *testing.T) {
	if (FlagSYN | FlagACK).String() != "SYN|ACK" {
		t.Fatalf("Flags String = %q", (FlagSYN | FlagACK).String())
	}
	if Flags(0).String() != "none" {
		t.Fatal("zero flags String broken")
	}
}

func TestHeaderLenPadding(t *testing.T) {
	// A lone window-scale option (3 bytes) must pad to 4.
	h := Header{Flags: FlagSYN, Opts: Options{WScaleOK: true, WScale: 7}}
	if h.Len() != MinHeaderLen+4 {
		t.Fatalf("Len = %d, want %d", h.Len(), MinHeaderLen+4)
	}
	seg := h.Marshal(srcAddr, dstAddr, nil)
	got, _, err := Parse(srcAddr, dstAddr, seg)
	if err != nil || !got.Opts.WScaleOK || got.Opts.WScale != 7 {
		t.Fatalf("padded options broken: %+v, %v", got.Opts, err)
	}
}
