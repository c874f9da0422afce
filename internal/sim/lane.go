package sim

import (
	"sort"
	"time"
)

// A Lane is a source of events that come due in the order they are
// scheduled: a FIFO server (a link's transmitter, a CPU core, a switch's
// fixed delay) or a fixed timeout (TIME_WAIT, a grace period). However
// many events wait on a lane, the Loop's heap holds one entry for it:
// the lane's head is a pending event like any other, in a slot marked
// as the lane's, and the rest queue behind it in the lane's own ring.
// When the head runs, Step refills its slot with the next event and
// re-keys its heap entry instead of removing one entry and inserting
// another. A queued frame so costs the simulator O(1), as it costs the
// queue it models; an event that finds its lane idle costs what it
// would cost without one.
//
// A lane changes nothing observable. AfterFrame and AfterFunc draw the
// event's sequence number exactly where the Loop's own methods draw it,
// the heap entry carries the head's true (at, seq) key, and head and
// ring are sorted by that key (at is checked to be non-decreasing, seq
// always is), so the heap's root is still the globally smallest key and
// every event runs in (instant, scheduling order). An event due
// *earlier* than the lane's tail is not a lane event at all: it falls
// through to the Loop's ordinary insert, so correctness never rests on
// the caller's FIFO claim — only the saving does.
//
// The owner embeds a Lane, calls Init once and never copies it. On a
// Clock that is not a *Loop a lane passes everything straight through.
type Lane struct {
	clock Clock
	loop  *Loop // nil when clock is not a Loop
	// busy says the lane's head is pending, in loop slot `slot`; tail is
	// when the event queued last comes due.
	busy bool
	slot int32
	tail Time
	// q is a ring of the n events waiting behind the head, starting at
	// index head, sorted by (at, seq).
	q       []laneEvent
	head, n int
}

// laneEvent is one event waiting behind a lane's head.
type laneEvent struct {
	at  Time
	seq uint64
	callback
}

// ev returns the k-th waiting event.
func (ln *Lane) ev(k int) *laneEvent {
	k += ln.head
	if k >= len(ln.q) {
		k -= len(ln.q)
	}
	return &ln.q[k]
}

// Init binds the lane to its clock.
func (ln *Lane) Init(clock Clock) {
	ln.clock = clock
	ln.loop, _ = clock.(*Loop)
}

// AfterFrame schedules h.HandleFrame(frame, arg) the way
// Clock.AfterFrame does.
func (ln *Lane) AfterFrame(d time.Duration, h FrameHandler, frame []byte, arg uint64) {
	if c := ln.push(d); c != nil {
		c.handler, c.frame, c.arg = h, frame, arg
		return
	}
	ln.clock.AfterFrame(d, h, frame, arg)
}

// AfterFunc schedules fn the way Clock.AfterFunc does. The Handle's Stop
// is exact: the event leaves the lane at once.
func (ln *Lane) AfterFunc(d time.Duration, fn func()) Handle {
	if c := ln.push(d); c != nil {
		c.fn = fn
		return Handle{loop: ln.loop, seq: ln.loop.seq, slot: ln.slot}
	}
	return ln.clock.AfterFunc(d, fn)
}

// push queues an event d from now at the lane's tail and returns its
// empty callback for the caller to fill in, valid until the next push.
// It returns nil, having drawn no sequence number, when the event is not
// the lane's to hold: the clock is not a Loop, or the event is due
// before the lane's tail.
func (ln *Lane) push(d time.Duration) *callback {
	l := ln.loop
	if l == nil {
		return nil
	}
	if d < 0 {
		d = 0
	}
	at := l.now.Add(d)
	if !ln.busy {
		// The event is the head: an ordinary pending event whose slot
		// is marked as the lane's.
		i, s := l.schedule(d)
		l.lanes[i], ln.slot, ln.busy, ln.tail = ln, i, true, at
		return &s.callback
	}
	if at < ln.tail {
		return nil
	}
	ln.tail = at
	l.seq++
	l.waiting++
	if ln.n == len(ln.q) {
		ln.grow()
	}
	ev := ln.ev(ln.n)
	ln.n++
	ev.at, ev.seq = at, l.seq
	return &ev.callback
}

// grow enlarges the full ring, unrolling it to start at index 0: it
// doubles a small ring and adds a quarter to a large one, as append
// does, so a lane a hundred thousand timers deep is at most a quarter
// slack.
func (ln *Lane) grow() {
	size := 16
	if n := len(ln.q); n >= 1024 {
		size = n + n/4
	} else if n > 0 {
		size = 2 * n
	}
	q := make([]laneEvent, size)
	k := copy(q, ln.q[ln.head:])
	copy(q[k:], ln.q[:ln.head])
	ln.q, ln.head = q, 0
}

// advance replaces the lane's head — just taken to run, or stopped —
// whose heap entry is at index i: the next event waiting moves into the
// head's slot and the entry takes its key, which can only be later; if
// none waits, the entry and the slot go back to the loop and the lane
// is idle.
func (ln *Lane) advance(i int) {
	l := ln.loop
	if ln.n == 0 {
		l.remove(i)
		l.lanes[ln.slot] = nil
		l.release(ln.slot)
		ln.busy = false
		return
	}
	next := &ln.q[ln.head]
	s := &l.slots[ln.slot]
	s.callback, s.seq = next.callback, next.seq
	l.heap[i].at, l.heap[i].seq = next.at, next.seq
	ln.dropFirst()
	l.down(i)
}

// dropFirst vacates the ring's first entry.
func (ln *Lane) dropFirst() {
	ln.q[ln.head] = laneEvent{}
	if ln.head++; ln.head == len(ln.q) {
		ln.head = 0
	}
	ln.n--
	ln.loop.waiting--
}

// find returns the ring offset of the waiting event numbered seq, or -1.
// The ring is sorted by seq.
func (ln *Lane) find(seq uint64) int {
	k := sort.Search(ln.n, func(k int) bool { return ln.ev(k).seq >= seq })
	if k < ln.n && ln.ev(k).seq == seq {
		return k
	}
	return -1
}

// cancel removes the waiting event numbered seq, if the lane holds it,
// closing the gap from whichever end of the ring is nearer.
func (ln *Lane) cancel(seq uint64) bool {
	k := ln.find(seq)
	if k < 0 {
		return false
	}
	if k < ln.n-1-k {
		for j := k; j > 0; j-- {
			*ln.ev(j) = *ln.ev(j - 1)
		}
		ln.dropFirst()
		return true
	}
	for j := k; j < ln.n-1; j++ {
		*ln.ev(j) = *ln.ev(j + 1)
	}
	*ln.ev(ln.n - 1) = laneEvent{}
	ln.n--
	ln.loop.waiting--
	return true
}
