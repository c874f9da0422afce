package servicelib

import (
	"testing"

	"netkernel/internal/nqe"
)

// quietEngine replaces the harness's recording engine with one that
// drains the NSM output rings without keeping anything, so what an
// allocation gate measures is the ServiceLib alone.
func (h *harness) quietEngine() {
	h.pair.KickEngineNSM = func(int) {
		var e nqe.Element
		for h.pair.NSMCompletion.Pop(&e) {
		}
		for h.pair.NSMReceive.Pop(&e) {
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
