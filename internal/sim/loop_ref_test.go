package sim

import (
	"container/heap"
	"time"
)

// refLoop is the event loop this package shipped before the typed heap:
// container/heap over *refEvent with lazy cancellation (Stop marks, Step
// discards marked events when they surface). It survives only here, as
// the oracle the differential test drives beside Loop. Its Pending
// counts stopped events too; live() counts what Loop.Pending counts.
type refLoop struct {
	now    Time
	events refHeap
	seq    uint64
	free   []*refEvent // recycled event structs
	nrun   uint64
}

// newRefLoop returns an empty loop positioned at time zero.
func newRefLoop() *refLoop {
	return &refLoop{events: make(refHeap, 0, 1024)}
}

// Now returns the current virtual time.
func (l *refLoop) Now() Time { return l.now }

// Processed returns the number of callbacks executed so far, which is
// useful for cost accounting in tests and benchmarks.
func (l *refLoop) Processed() uint64 { return l.nrun }

// Pending returns the number of scheduled (possibly stopped) events.
func (l *refLoop) Pending() int { return len(l.events) }

// AfterFunc schedules fn to run once d has elapsed in virtual time.
func (l *refLoop) AfterFunc(d time.Duration, fn func()) refTimer {
	if d < 0 {
		d = 0
	}
	e := l.at(l.now.Add(d), fn)
	return refTimer{e: e, seq: e.seq}
}

// Post schedules fn to run at the current instant, after events already
// pending for it.
func (l *refLoop) Post(fn func()) { l.at(l.now, fn) }

func (l *refLoop) at(t Time, fn func()) *refEvent {
	var e *refEvent
	if n := len(l.free); n > 0 {
		e = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		e = new(refEvent)
	}
	l.seq++
	*e = refEvent{at: t, seq: l.seq, fn: fn, loop: l, idx: -1}
	heap.Push(&l.events, e)
	return e
}

// Step executes the next pending event, advancing virtual time to its
// instant. It reports whether an event was executed.
func (l *refLoop) Step() bool {
	for len(l.events) > 0 {
		e := heap.Pop(&l.events).(*refEvent)
		fn, stopped := e.fn, e.stopped
		e.fn = nil
		e.loop = nil
		l.free = append(l.free, e)
		if stopped {
			continue
		}
		if e.at > l.now {
			l.now = e.at
		}
		l.nrun++
		fn()
		return true
	}
	return false
}

// Run executes events until none remain.
func (l *refLoop) Run() {
	for l.Step() {
	}
}

// pruneStopped discards cancelled events sitting at the top of the heap
// so time-bounded runs never mistake them for runnable work.
func (l *refLoop) pruneStopped() {
	for len(l.events) > 0 && l.events[0].stopped {
		e := heap.Pop(&l.events).(*refEvent)
		e.fn = nil
		e.loop = nil
		l.free = append(l.free, e)
	}
}

// RunUntil executes every event scheduled at or before t, then advances
// the clock to t.
func (l *refLoop) RunUntil(t Time) {
	for {
		l.pruneStopped()
		if len(l.events) == 0 || l.events[0].at > t {
			break
		}
		l.Step()
	}
	if t > l.now {
		l.now = t
	}
}

// RunFor executes everything within the next d of virtual time and
// advances the clock by exactly d.
func (l *refLoop) RunFor(d time.Duration) { l.RunUntil(l.now.Add(d)) }

// event is a scheduled callback. Cancellation is lazy: Stop marks the
// event and Step discards marked events when they surface. Event structs
// are recycled, so handles carry the sequence number they were
// issued for; a stale handle (its event already ran and was reissued)
// becomes a no-op instead of cancelling an unrelated event.
type refEvent struct {
	at      Time
	seq     uint64
	fn      func()
	loop    *refLoop
	idx     int
	stopped bool
}

type refTimer struct {
	e   *refEvent
	seq uint64
}

func (t refTimer) Stop() bool {
	e := t.e
	if e.seq != t.seq || e.loop == nil || e.stopped || e.fn == nil {
		return false
	}
	e.stopped = true
	return true
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }

func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}

func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.idx = len(*h)
	*h = append(*h, e)
}

func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// live counts what Loop.Pending counts: scheduled events that will
// still run.
func (l *refLoop) live() int {
	n := 0
	for _, e := range l.events {
		if !e.stopped {
			n++
		}
	}
	return n
}
