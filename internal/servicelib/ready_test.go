package servicelib

import (
	"testing"

	"netkernel/internal/nqe"
	"netkernel/internal/shm"
)

// A flush of 40 polled connections packs their readiness into two
// descriptor OpReady elements, 32 entries and then 8, in first-transition
// order: the per-chunk cap is 32 entries (256 B) whatever the chunk size.
func TestReadyFlushPacks32PerChunk(t *testing.T) {
	const conns = 40
	h := newHarness(t, "cubic")
	cids := make([]uint32, conns)
	for i := range cids {
		cids[i] = h.newSocket(t)
		h.job(nqe.Element{Op: nqe.OpPollCtl, CID: cids[i], Arg0: 1})
	}
	h.events = h.events[:0]
	for i, cid := range cids {
		mask := nqe.ReadyReadable
		if i%2 == 1 {
			mask |= nqe.ReadyClosed
		}
		h.svc.queueReady(0, cid, mask)
	}
	h.loop.RunFor(readyDelay)

	var ready []nqe.Element
	for _, e := range h.events {
		if e.Op == nqe.OpReady {
			ready = append(ready, e)
		}
	}
	if len(ready) != 2 || ready[0].Arg0 != 32 || ready[1].Arg0 != 8 {
		var counts []uint64
		for _, e := range ready {
			counts = append(counts, e.Arg0)
		}
		t.Fatalf("OpReady entry counts %v, want [32 8]", counts)
	}
	next := 0
	for _, e := range ready {
		if e.DataLen != uint32(e.Arg0)*nqe.ReadyEntrySize {
			t.Fatalf("OpReady of %d entries carries %d bytes, want a descriptor of %d", e.Arg0, e.DataLen, e.Arg0*nqe.ReadyEntrySize)
		}
		chunk := shm.Chunk{Offset: e.DataOff}
		buf := h.pair.Pages.Bytes(chunk)
		for i := 0; i < int(e.Arg0); i++ {
			id, mask := nqe.ReadyEntryAt(buf, i)
			want := nqe.ReadyReadable
			if next%2 == 1 {
				want |= nqe.ReadyClosed
			}
			if id != cids[next] || mask != want {
				t.Fatalf("entry %d is (%d, %#x), want (%d, %#x)", next, id, mask, cids[next], want)
			}
			next++
		}
		h.pair.Pages.Free(chunk)
	}
	if n := h.pair.Pages.LiveRefs(); n != 0 {
		t.Fatalf("%d chunk references left after freeing both OpReady chunks", n)
	}
}
