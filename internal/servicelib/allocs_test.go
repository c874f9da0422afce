package servicelib

import (
	"testing"

	"netkernel/internal/nqe"
	"netkernel/internal/shm"
)

// quietEngine replaces the harness's recording engine with one that
// drains the NSM output rings without keeping anything, returning the
// chunks of coalesced OpReady events, so what an allocation gate
// measures is the ServiceLib alone.
func (h *harness) quietEngine() {
	h.pair.KickEngineNSM = func(int) {
		var e nqe.Element
		for h.pair.NSMCompletion.Pop(&e) {
		}
		for h.pair.NSMReceive.Pop(&e) {
			if e.Op == nqe.OpReady && e.DataLen > 0 {
				h.pair.Pages.Free(shm.Chunk{Offset: e.DataOff})
			}
		}
	}
}

// A receive coalescing window is a typed loop event keyed by cID: arming
// it and letting it fire allocates nothing.
func TestAllocsArmRxFlush(t *testing.T) {
	h := newHarness(t, "cubic")
	cid, _ := h.establish(t)
	h.quietEngine()
	cs := h.svc.conns[cid]
	cycle := func() {
		h.svc.armRxFlush(cs)
		h.svc.armRxFlush(cs) // coalesces into the pending window
		h.loop.RunFor(coalesceDelay)
		if cs.flushPending {
			t.Fatal("the coalescing window did not close")
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("armRxFlush + flush: %v allocs, want 0", n)
	}
}

// Readiness coalescing reuses its order slice and dedup map and its
// window is a typed loop event: a shard's queueReady burst and the flush
// that packs it into one OpReady allocate nothing, in either the
// single-entry or the chunked form.
func TestAllocsQueueReadyFlush(t *testing.T) {
	h := newHarness(t, "cubic")
	h.quietEngine()
	for _, ids := range [][]uint32{{7}, {7, 8, 9, 8}} {
		cycle := func() {
			for _, id := range ids {
				h.svc.queueReady(0, id, nqe.ReadyReadable)
			}
			h.loop.RunFor(readyDelay)
			if len(h.svc.ready[0].order) != 0 {
				t.Fatal("the readiness window did not flush")
			}
		}
		cycle()
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("queueReady x%d + flushReady: %v allocs, want 0", len(ids), n)
		}
	}
	if h.pair.Pages.LiveRefs() != 0 {
		t.Fatal("an OpReady chunk leaked")
	}
}
