package nkqueue

import (
	"netkernel/internal/fifo"
	"netkernel/internal/nqe"
)

// Backlog is the conveyor's one stall buffer: a FIFO of elements that
// found their destination ring full (or fault-stalled), each parked
// with the ring it was bound for. GuestLib parks jobs in one, the
// CoreEngine parks translated elements for either side, ServiceLib
// parks emissions, and all of them follow the same two rules.
//
// Order: an element goes straight into its ring only while nothing is
// parked, and Drain retries parked elements oldest first, stopping at
// the first refusal — a data flood can delay an element but never lose
// or overtake it.
//
// Wake: whoever moves an element into a ring owes that ring's consumer
// a kick. Push reports whether the element reached its ring, so the
// caller kicks exactly as it would after a bare Queue.Push; Drain calls
// Wake for every element it moved and returns the count, for the owner
// (the CoreEngine) whose kick is a costed follow-up rather than a call.
//
// The zero value is an empty backlog. Not safe for concurrent use: each
// belongs to the one producer that parks into it.
type Backlog struct {
	// Wake, when set, is called by Drain with the ring of each element
	// it moved, as a producer kicks after each push; kicks coalesce at
	// the consumer.
	Wake func(dst *Queue)

	q fifo.Ring[parked]
}

type parked struct {
	dst *Queue
	e   nqe.Element
}

// Len returns how many elements are parked.
func (b *Backlog) Len() int { return b.q.Len() }

// Push sends e to dst: straight into the ring when nothing is parked
// and the ring takes it, otherwise to the tail of the backlog. It
// reports whether e reached the ring.
func (b *Backlog) Push(dst *Queue, e *nqe.Element) bool {
	if b.q.Len() == 0 && dst.Push(e) {
		return true
	}
	b.q.Push(parked{dst, *e})
	return false
}

// Drain moves parked elements into their rings, oldest first, until one
// is refused or none are left, and returns how many it moved.
func (b *Backlog) Drain() int {
	moved := 0
	for b.q.Len() > 0 {
		p := b.q.Front()
		if !p.dst.Push(&p.e) {
			break
		}
		if b.Wake != nil {
			b.Wake(p.dst)
		}
		b.q.Pop()
		moved++
	}
	return moved
}

// Discard empties the backlog, handing each parked element to fn
// exactly once (the crash paths: fn returns the element's huge-page
// chunk and abandons its trace span).
func (b *Backlog) Discard(fn func(e *nqe.Element)) {
	for b.q.Len() > 0 {
		fn(&b.q.Front().e)
		b.q.Pop()
	}
}
