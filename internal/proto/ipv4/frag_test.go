package ipv4

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"netkernel/internal/sim"
)

// joinFragments parses fragments in order and concatenates their
// payloads, checking that each offset continues where the previous
// fragment ended, that every fragment but the last sets MF and carries a
// multiple of 8 bytes, and that the last one clears MF.
func joinFragments(frags [][]byte) ([]byte, error) {
	var out []byte
	for i, f := range frags {
		fh, pl, err := Parse(f)
		if err != nil {
			return nil, fmt.Errorf("fragment %d: %v", i, err)
		}
		if int(fh.FragOff)*8 != len(out) {
			return nil, fmt.Errorf("fragment %d at offset %d, want %d", i, int(fh.FragOff)*8, len(out))
		}
		last := i == len(frags)-1
		if more := fh.Flags&FlagMoreFrags != 0; more == last {
			return nil, fmt.Errorf("fragment %d of %d: MF=%v", i, len(frags), more)
		}
		if !last && len(pl)%8 != 0 {
			return nil, fmt.Errorf("non-final fragment %d has %d payload bytes (not 8-aligned)", i, len(pl))
		}
		out = append(out, pl...)
	}
	return out, nil
}

func TestFragmentSmallPacketPassesThrough(t *testing.T) {
	h := sampleHeader()
	payload := make([]byte, 100)
	frags, err := Fragment(h, payload, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 {
		t.Fatalf("got %d fragments, want 1", len(frags))
	}
	got, pl, err := Parse(frags[0])
	if err != nil || got.Flags&FlagMoreFrags != 0 || len(pl) != 100 {
		t.Fatalf("pass-through broken: %+v, %d bytes, %v", got, len(pl), err)
	}
}

func TestFragmentAndReassemble(t *testing.T) {
	h := sampleHeader()
	payload := make([]byte, 4000)
	for i := range payload {
		payload[i] = byte(i)
	}
	frags, err := Fragment(h, payload, 1500)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("got %d fragments, want 3", len(frags))
	}
	full, err := joinFragments(frags)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, payload) {
		t.Fatal("joined payload differs")
	}
}

func TestFragmentRespectsDF(t *testing.T) {
	h := sampleHeader()
	h.Flags = FlagDontFragment
	if _, err := Fragment(h, make([]byte, 3000), 1500); err == nil {
		t.Fatal("DF datagram fragmented")
	}
	if _, err := Fragment(h, make([]byte, 100), 1500); err != nil {
		t.Fatalf("DF datagram that fits rejected: %v", err)
	}
}

func TestFragmentTinyMTU(t *testing.T) {
	if _, err := Fragment(sampleHeader(), make([]byte, 100), HeaderLen+4); err == nil {
		t.Fatal("unusable MTU accepted")
	}
}

// Property: for any payload and any workable MTU, the fragments' offsets
// and flags describe the payload, and their bytes joined are the payload.
func TestQuickFragmentReassemble(t *testing.T) {
	err := quick.Check(func(seed uint64, sizeSel uint16, mtuSel uint8) bool {
		size := int(sizeSel)%8000 + 1
		mtu := HeaderLen + 8 + int(mtuSel)%1400
		rng := sim.NewRNG(seed)
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(rng.Uint64())
		}
		frags, err := Fragment(sampleHeader(), payload, mtu)
		if err != nil {
			return false
		}
		full, err := joinFragments(frags)
		return err == nil && bytes.Equal(full, payload)
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}
