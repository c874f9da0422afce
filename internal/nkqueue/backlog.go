package nkqueue

import "netkernel/internal/nqe"

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
// caller kicks exactly as it would after a bare Q.Push; Drain calls
// Wake for every element it moved and returns the count, for the owner
// (the CoreEngine) whose kick is a costed follow-up rather than a call.
//
// The zero value is an empty backlog. Not safe for concurrent use: each
// belongs to the one producer that parks into it.
type Backlog struct {
	// Wake, when set, is called by Drain with the ring of each element
	// it moved, as a producer kicks after each push; kicks coalesce at
	// the consumer.
	Wake func(dst Q)

	buf     []parked // circular; len is zero or a power of two
	head, n int
}

type parked struct {
	dst Q
	e   nqe.Element
}

// Len returns how many elements are parked.
func (b *Backlog) Len() int { return b.n }

// Push sends e to dst: straight into the ring when nothing is parked
// and the ring takes it, otherwise to the tail of the backlog. It
// reports whether e reached the ring.
func (b *Backlog) Push(dst Q, e *nqe.Element) bool {
	if b.n == 0 && dst.Push(e) {
		return true
	}
	if b.n == len(b.buf) {
		b.grow()
	}
	b.buf[(b.head+b.n)&(len(b.buf)-1)] = parked{dst, *e}
	b.n++
	return false
}

// Drain moves parked elements into their rings, oldest first, until one
// is refused or none are left, and returns how many it moved.
func (b *Backlog) Drain() int {
	moved := 0
	for b.n > 0 {
		p := &b.buf[b.head]
		if !p.dst.Push(&p.e) {
			break
		}
		if b.Wake != nil {
			b.Wake(p.dst)
		}
		b.drop()
		moved++
	}
	return moved
}

// Discard empties the backlog, handing each parked element to fn
// exactly once (the crash paths: fn returns the element's huge-page
// chunk and abandons its trace span).
func (b *Backlog) Discard(fn func(e *nqe.Element)) {
	for b.n > 0 {
		fn(&b.buf[b.head].e)
		b.drop()
	}
}

// drop removes the head entry.
func (b *Backlog) drop() {
	b.head = (b.head + 1) & (len(b.buf) - 1)
	b.n--
}

// grow doubles the full buffer, unrolling it so head is slot 0.
func (b *Backlog) grow() {
	next := make([]parked, max(8, 2*len(b.buf)))
	k := copy(next, b.buf[b.head:])
	copy(next[k:], b.buf[:b.head])
	b.buf, b.head = next, 0
}
