package sim

import "time"

// Loop is a deterministic discrete-event loop implementing Clock in
// virtual time. Events run in (instant, scheduling order): two events
// due at the same instant run in the order they were scheduled. Loop is
// not safe for concurrent use: everything that touches a Loop must run
// either before Run/RunFor or from inside its callbacks.
//
// Pending events live in a 4-ary min-heap whose entries carry their own
// (at, seq) key, so ordering never leaves the heap array; what an event
// runs lives in a recycled slot the entry points at. Cancellation is
// exact — Stop removes the entry at once — so the heap holds live
// events only, and neither scheduling nor cancelling allocates. A Lane
// keeps the events of one FIFO source behind a single entry.
type Loop struct {
	now   Time
	heap  []heapEntry
	slots []slot
	// lanes parallels slots: lanes[i] is the Lane whose head event slot i
	// holds, nil for an event on no lane.
	lanes   []*Lane
	free    int32 // head of the free-slot list (linked through slot.pos), -1 when empty
	seq     uint64
	nrun    uint64
	waiting int // events queued in lanes behind their lane's head
}

// heapEntry is one pending event's ordering key and its slot.
type heapEntry struct {
	at   Time
	seq  uint64
	slot int32
}

func (a heapEntry) before(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// callback is what an event runs: fn, or handler.HandleFrame(frame, arg)
// when fn is nil.
type callback struct {
	fn      func()
	handler FrameHandler
	frame   []byte
	arg     uint64
}

func (c *callback) run() {
	if c.fn != nil {
		c.fn()
	} else {
		c.handler.HandleFrame(c.frame, c.arg)
	}
}

// slot holds a pending event's callback. seq is the pending event's
// sequence number and zero while the slot is free, which is how a Handle
// outliving its event (run, stopped, or the slot reissued) is recognised
// as stale.
type slot struct {
	callback
	seq uint64
	pos int32 // heap index while pending, next free slot otherwise
}

// NewLoop returns an empty loop positioned at time zero. The heap holds
// one entry per armed timer and per busy lane, not per frame in flight:
// a busy two-host world keeps it near a hundred.
func NewLoop() *Loop {
	return &Loop{heap: make([]heapEntry, 0, 128), slots: make([]slot, 0, 128), free: -1}
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Processed returns the number of callbacks executed so far, which is
// useful for cost accounting in tests and benchmarks.
func (l *Loop) Processed() uint64 { return l.nrun }

// Pending returns the number of scheduled events that will still run.
func (l *Loop) Pending() int { return len(l.heap) + l.waiting }

// AfterFunc schedules fn to run once d has elapsed in virtual time.
func (l *Loop) AfterFunc(d time.Duration, fn func()) Handle {
	i, s := l.schedule(d)
	s.fn = fn
	return Handle{loop: l, seq: s.seq, slot: i}
}

// AfterFrame schedules h.HandleFrame(frame, arg) to run once d has
// elapsed in virtual time.
func (l *Loop) AfterFrame(d time.Duration, h FrameHandler, frame []byte, arg uint64) {
	_, s := l.schedule(d)
	s.handler, s.frame, s.arg = h, frame, arg
}

// schedule draws the next sequence number and queues an empty event d
// from now (negative d means now). The returned slot pointer is valid
// until the next schedule.
func (l *Loop) schedule(d time.Duration) (int32, *slot) {
	if d < 0 {
		d = 0
	}
	i := l.free
	if i >= 0 {
		l.free = l.slots[i].pos
	} else {
		i = int32(len(l.slots))
		l.slots = append(l.slots, slot{})
		l.lanes = append(l.lanes, nil)
	}
	l.seq++
	s := &l.slots[i]
	s.seq = l.seq
	l.heap = append(l.heap, heapEntry{at: l.now.Add(d), seq: l.seq, slot: i})
	l.up(len(l.heap) - 1)
	return i, s
}

// release returns slot i to the free list, dropping what it referenced.
func (l *Loop) release(i int32) {
	l.slots[i] = slot{pos: l.free}
	l.free = i
}

// cancel removes the event Handle{seq, slot i} names, if it is still
// pending.
func (l *Loop) cancel(i int32, seq uint64) bool {
	s, ln := &l.slots[i], l.lanes[i]
	switch {
	case s.seq != seq:
		// Not what slot i holds — unless it waits behind it.
		return ln != nil && ln.cancel(seq)
	case ln != nil:
		ln.advance(int(s.pos))
	default:
		l.remove(int(s.pos))
		l.release(i)
	}
	return true
}

// pending reports whether the event Handle{seq, slot i} names has yet
// to run.
func (l *Loop) pending(i int32, seq uint64) bool {
	return l.slots[i].seq == seq || l.lanes[i] != nil && l.lanes[i].find(seq) >= 0
}

// Step executes the next pending event, advancing virtual time to its
// instant. It reports whether an event was executed.
func (l *Loop) Step() bool {
	if len(l.heap) == 0 {
		return false
	}
	e := l.heap[0]
	s := l.slots[e.slot].callback
	// The slot is released — or, at the head of a lane, refilled with the
	// lane's next event — before the callback runs, so the callback's own
	// scheduling can reuse it and a Stop on its own handle reports false.
	if ln := l.lanes[e.slot]; ln != nil {
		ln.advance(0)
	} else {
		l.remove(0)
		l.release(e.slot)
	}
	if e.at > l.now {
		l.now = e.at
	}
	l.nrun++
	s.run()
	return true
}

// Run executes events until none remain.
func (l *Loop) Run() {
	for l.Step() {
	}
}

// RunUntil executes every event scheduled at or before t, then advances
// the clock to t.
func (l *Loop) RunUntil(t Time) {
	for len(l.heap) > 0 && l.heap[0].at <= t {
		l.Step()
	}
	if t > l.now {
		l.now = t
	}
}

// RunFor executes everything within the next d of virtual time and
// advances the clock by exactly d.
func (l *Loop) RunFor(d time.Duration) { l.RunUntil(l.now.Add(d)) }

// The heap is 4-ary: the children of i are 4i+1..4i+4. Keys are unique
// (seq is), so the pop order is the sorted order whatever the shape.

// place stores e at heap index i and records the position in its slot.
func (l *Loop) place(i int, e heapEntry) {
	l.heap[i] = e
	l.slots[e.slot].pos = int32(i)
}

func (l *Loop) up(i int) {
	e := l.heap[i]
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(l.heap[p]) {
			break
		}
		l.place(i, l.heap[p])
		i = p
	}
	l.place(i, e)
}

func (l *Loop) down(i int) {
	e := l.heap[i]
	n := len(l.heap)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if l.heap[j].before(l.heap[m]) {
				m = j
			}
		}
		if !l.heap[m].before(e) {
			break
		}
		l.place(i, l.heap[m])
		i = m
	}
	l.place(i, e)
}

// remove deletes the entry at heap index i.
func (l *Loop) remove(i int) {
	n := len(l.heap) - 1
	last := l.heap[n]
	l.heap = l.heap[:n]
	if i == n {
		return
	}
	l.heap[i] = last
	if i > 0 && last.before(l.heap[(i-1)/4]) {
		l.up(i)
	} else {
		l.down(i)
	}
}
