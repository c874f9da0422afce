package sim

import (
	"testing"
	"time"
)

type recordFrames struct {
	l    *Loop
	args []uint64
	at   []Time
}

func (r *recordFrames) HandleFrame(_ []byte, arg uint64) {
	r.args = append(r.args, arg)
	r.at = append(r.at, r.l.Now())
}

// A backlog on one lane is one heap entry however deep it is, counts in
// full in Pending, and runs in order, interleaved by (instant, sequence)
// with what the heap holds.
func TestLaneBacklogIsOneHeapEntry(t *testing.T) {
	l := NewLoop()
	var lane Lane
	lane.Init(l)
	rec := &recordFrames{l: l}
	const deep = 4096
	for i := 0; i < deep; i++ {
		if i == deep/2 {
			// A heap event at the lane's instant, scheduled mid-way.
			l.AfterFrame(time.Millisecond, rec, nil, 1<<32)
		}
		lane.AfterFrame(time.Millisecond, rec, nil, uint64(i))
	}
	if len(l.heap) != 2 || l.Pending() != deep+1 {
		t.Fatalf("heap holds %d entries and Pending = %d, want 2 and %d", len(l.heap), l.Pending(), deep+1)
	}
	for i := 0; i < deep/2; i++ {
		l.Step()
	}
	if len(l.heap) != 2 || l.Pending() != deep/2+1 {
		t.Fatalf("half way: heap holds %d entries and Pending = %d", len(l.heap), l.Pending())
	}
	l.Step()
	if got := rec.args[len(rec.args)-1]; got != 1<<32 {
		t.Fatalf("event %d ran where the heap's event was due", got)
	}
	if len(l.heap) != 1 {
		t.Fatalf("heap holds %d entries behind a %d-deep lane, want 1", len(l.heap), deep/2)
	}
	l.Run()
	if len(rec.args) != deep+1 || l.Pending() != 0 || len(l.heap) != 0 {
		t.Fatalf("%d events ran, Pending = %d, heap %d", len(rec.args), l.Pending(), len(l.heap))
	}
	rec.args = append(rec.args[:deep/2], rec.args[deep/2+1:]...)
	for i, got := range rec.args {
		if got != uint64(i) {
			t.Fatalf("lane event %d ran in position %d", got, i)
		}
	}
}

// Stop is exact wherever the event sits: the head (the heap entry takes
// the next head's key), the middle, the tail, and an event already run.
func TestLaneStopPositions(t *testing.T) {
	l := NewLoop()
	var lane Lane
	lane.Init(l)
	var ran []int
	var hs [6]Handle
	for i := range hs {
		i := i
		hs[i] = lane.AfterFunc(time.Duration(i+1)*time.Millisecond, func() { ran = append(ran, i) })
	}
	for _, i := range []int{0, 3, 5} { // head, middle, tail
		if !hs[i].Pending() || !hs[i].Stop() || hs[i].Pending() || hs[i].Stop() {
			t.Fatalf("Stop of event %d: want pending, stopped once, then neither", i)
		}
	}
	if l.Pending() != 3 || len(l.heap) != 1 || l.heap[0].at != Time(2*time.Millisecond) {
		t.Fatalf("Pending = %d, heap %+v; want 3 behind the 2 ms head", l.Pending(), l.heap)
	}
	l.Step()
	if hs[1].Pending() || hs[1].Stop() {
		t.Fatal("Stop of an event that ran reported true")
	}
	if !hs[2].Stop() || !hs[4].Stop() || l.Pending() != 0 || len(l.heap) != 0 {
		t.Fatalf("after stopping the rest: Pending = %d, heap %d", l.Pending(), len(l.heap))
	}
	// The lane's slot went back to the loop; a later event takes it, and
	// the stale handles must not reach it.
	fired := false
	l.AfterFunc(time.Millisecond, func() { fired = true })
	for i := range hs {
		if hs[i].Stop() || hs[i].Pending() {
			t.Fatalf("stale lane handle %d reached a reissued slot", i)
		}
	}
	l.Run()
	if !fired || len(ran) != 1 || ran[0] != 1 {
		t.Fatalf("ran %v, fired %v; want only event 1 and the late event", ran, fired)
	}
}

// A FIFO server's completion handler queues the next job on the lane it
// is running from, also when it just emptied it.
func TestLaneHandlerSchedulesOntoOwnLane(t *testing.T) {
	l := NewLoop()
	var lane Lane
	lane.Init(l)
	left := 10
	var job func()
	job = func() {
		if left--; left > 0 {
			lane.AfterFunc(time.Microsecond, job)
			if left%2 == 0 {
				lane.AfterFunc(time.Microsecond, func() {})
			}
		}
	}
	lane.AfterFunc(0, job)
	l.Run()
	if left != 0 || l.Now() != Time(9*time.Microsecond) || l.Processed() != 14 || l.Pending() != 0 {
		t.Fatalf("left %d at %v after %d events, Pending %d", left, l.Now(), l.Processed(), l.Pending())
	}
}

// An event due before the lane's tail is not held back behind it: it
// takes a heap entry of its own and runs at its own instant.
func TestLaneEarlyEventFallsThrough(t *testing.T) {
	l := NewLoop()
	var lane Lane
	lane.Init(l)
	rec := &recordFrames{l: l}
	lane.AfterFrame(5*time.Millisecond, rec, nil, 0)
	lane.AfterFrame(9*time.Millisecond, rec, nil, 1)
	lane.AfterFrame(7*time.Millisecond, rec, nil, 2) // before the tail
	early := lane.AfterFunc(time.Millisecond, func() { rec.HandleFrame(nil, 3) })
	if len(l.heap) != 3 || l.Pending() != 4 || !early.Pending() {
		t.Fatalf("heap holds %d entries, Pending = %d", len(l.heap), l.Pending())
	}
	l.Run()
	want := []uint64{3, 0, 2, 1}
	for i, arg := range want {
		if rec.args[i] != arg {
			t.Fatalf("ran %v at %v, want %v", rec.args, rec.at, want)
		}
	}
	if rec.at[2] != Time(7*time.Millisecond) {
		t.Fatalf("the early event ran at %v, want 7ms", rec.at[2])
	}
}
