package shm

import (
	"fmt"
	"sync/atomic"
)

// Ring is a single-producer single-consumer ring buffer of fixed-size
// slots, the in-memory equivalent of the prototype's small IVSHMEM queue
// devices (§4.1: "The queues are ring buffers implemented as much smaller
// IVSHMEM devices"). One goroutine may produce while another consumes
// without locks; head and tail live on separate cache lines to avoid
// false sharing on the hot path.
//
// A ring's slots are not one buffer of its depth: they are segments of
// SegmentSlots slots, drawn from a SlotReserve as the ring fills and
// given back as it drains, so a ring holds ⌈occupancy/SegmentSlots⌉+1
// segments at most and one that was never pushed to holds none. A
// span never crosses a segment. The producer links a fresh segment
// after its current one before publishing any slot in it; the consumer
// leaves a segment, and gives it back, only once it has read it to the
// end and the next one is linked. A producer that reaches the end of its
// segment while the ring is empty writes the next lap into the same
// segment instead of taking another.
type Ring struct {
	slotSize int
	mask     uint64 // depth - 1
	seg      uint64 // slots per segment: SegmentSlots, or the depth if smaller
	res      *SlotReserve
	// origin stands before the first segment: the producer links the
	// first segment it takes after it. It has no slots.
	origin segment

	_    [64]byte // keep head and tail on distinct cache lines
	head atomic.Uint64
	hseg *segment // consumer: the segment holding head, or ending at it
	hend uint64   // consumer: the position just past hseg
	_    [64]byte
	tail atomic.Uint64
	tseg *segment // producer: the segment tail is written into
	tend uint64   // producer: the position just past tseg
	_    [64]byte
}

// NewRing builds a ring of slots entries of slotSize bytes each over a
// reserve of its own, which allocates on the first push just what a
// full ring can hold. slots must be a power of two.
func NewRing(slots, slotSize int) (*Ring, error) {
	return NewRingIn(nil, slots, slotSize)
}

// NewRingIn is NewRing over res, whose segments the ring draws its
// slots from; res's slot size must be slotSize. A nil res means a
// private one.
func NewRingIn(res *SlotReserve, slots, slotSize int) (*Ring, error) {
	if slots <= 0 || slots&(slots-1) != 0 {
		return nil, fmt.Errorf("shm: slot count %d is not a positive power of two", slots)
	}
	if slotSize <= 0 {
		return nil, fmt.Errorf("shm: non-positive slot size %d", slotSize)
	}
	seg := min(slots, SegmentSlots)
	if res == nil {
		res = &SlotReserve{slotSize: slotSize, per: slots/seg + 1}
	} else if res.slotSize != slotSize {
		return nil, fmt.Errorf("shm: %d-byte slots from a reserve of %d-byte slots", slotSize, res.slotSize)
	}
	r := &Ring{slotSize: slotSize, mask: uint64(slots - 1), seg: uint64(seg), res: res}
	r.origin.base.Store(-uint64(seg))
	r.hseg, r.tseg = &r.origin, &r.origin
	return r, nil
}

// Cap returns the slot count.
func (r *Ring) Cap() int { return int(r.mask + 1) }

// Len returns the number of occupied slots. It is approximate when
// producer and consumer run concurrently but exact when quiescent.
func (r *Ring) Len() int { return int(r.tail.Load() - r.head.Load()) }

// span returns the n slots of s from position pos on.
func (r *Ring) span(s *segment, end, pos uint64, n int) []byte {
	off := int(pos-(end-r.seg)) * r.slotSize
	e := off + n*r.slotSize
	return s.buf[off:e:e]
}

// Reserve returns the next producer slot for in-place writing, or false
// if the ring is full. The slot is not visible to the consumer until
// Commit. Only the producer goroutine may call Reserve/Commit.
func (r *Ring) Reserve() ([]byte, bool) {
	span, n := r.ReserveN(1)
	if n == 0 {
		return nil, false
	}
	return span, true
}

// Commit publishes the slot returned by the last Reserve.
func (r *Ring) Commit() { r.tail.Add(1) }

// ReserveN returns a contiguous span of up to max free slots for
// in-place writing, as one slice of n*SlotSize bytes. The span never
// crosses a segment: a reservation that reaches the end of one is
// truncated there, and the next call returns slots of the next. n is 0
// when the ring is full (or max <= 0). Nothing is visible to the
// consumer until CommitN. Only the producer goroutine may call
// ReserveN/CommitN.
func (r *Ring) ReserveN(max int) (span []byte, n int) {
	if max <= 0 {
		return nil, 0
	}
	tail, head := r.tail.Load(), r.head.Load()
	free := int(r.mask + 1 - (tail - head))
	if free <= 0 {
		return nil, 0
	}
	if tail == r.tend {
		r.link(tail, head)
	}
	n = min(max, free, int(r.tend-tail))
	return r.span(r.tseg, r.tend, tail, n), n
}

// link gives the producer a segment for the slots from tail on. While
// the ring is empty the consumer has read the current segment to the
// end and holds no span of it, so the next lap is written into it;
// otherwise a fresh segment is taken and linked after the current one.
// Either is published before tail moves past it.
func (r *Ring) link(tail, head uint64) {
	cur := r.tseg
	if cur == &r.origin || head != tail {
		next := r.res.take()
		next.base.Store(tail)
		cur.next.Store(next)
		r.tseg = next
	} else {
		cur.base.Store(tail)
	}
	r.tend = tail + r.seg
}

// CommitN publishes the first n slots of the span returned by the last
// ReserveN with a single atomic add — the batch-publication the paper's
// batched-interrupt design implies (§3.2).
func (r *Ring) CommitN(n int) {
	if n > 0 {
		r.tail.Add(uint64(n))
	}
}

// Front returns the oldest occupied slot for in-place reading, or false
// if the ring is empty. The slot remains occupied until Release. Only the
// consumer goroutine may call Front/Release.
func (r *Ring) Front() ([]byte, bool) {
	span, n := r.FrontN(1)
	if n == 0 {
		return nil, false
	}
	return span, true
}

// Release frees the slot returned by the last Front.
func (r *Ring) Release() { r.ReleaseN(1) }

// FrontN returns a contiguous span of up to max occupied slots for
// in-place reading (or patching), as one slice of n*SlotSize bytes.
// Like ReserveN the span never crosses a segment: it is truncated at
// the segment's end and the next call returns the rest. n is 0 when the
// ring is empty. The slots stay occupied until ReleaseN. Only the
// consumer goroutine may call FrontN/ReleaseN.
func (r *Ring) FrontN(max int) (span []byte, n int) {
	if max <= 0 {
		return nil, 0
	}
	head := r.head.Load()
	avail := int(r.tail.Load() - head)
	if avail <= 0 {
		return nil, 0
	}
	if head == r.hend {
		// The producer links (or reuses) the segment that follows before
		// it publishes a slot there, so with avail > 0 the hop succeeds.
		r.hop()
	}
	n = min(max, avail, int(r.hend-head))
	return r.span(r.hseg, r.hend, head, n), n
}

// ReleaseN frees the first n slots of the span returned by the last
// FrontN with a single atomic add. A release that reads a segment to
// its end leaves it at once if the next one is linked.
func (r *Ring) ReleaseN(n int) {
	if n > 0 && r.head.Add(uint64(n)) == r.hend {
		r.hop()
	}
}

// hop moves the consumer from a segment it has read to the end onto the
// segment holding the next position, giving the old one back unless the
// producer reused it. It does nothing while the producer has neither
// linked a next segment nor reused this one.
func (r *Ring) hop() {
	cur := r.hseg
	// next first: the producer stores a reuse's base before it links any
	// later segment, so a linked next read here cannot hide a reuse.
	next := cur.next.Load()
	if cur.base.Load() == r.hend {
		r.hend += r.seg // reused for the next lap
		return
	}
	if next == nil {
		return
	}
	if cur != &r.origin {
		r.res.give(cur)
	}
	r.hseg = next
	r.hend += r.seg
}

// Enqueue copies src into the next free slot. src must be at most one
// slot long. It reports false when the ring is full.
func (r *Ring) Enqueue(src []byte) bool {
	if len(src) > r.slotSize {
		panic(fmt.Sprintf("shm: enqueue of %d bytes into %d-byte slots", len(src), r.slotSize))
	}
	slot, ok := r.Reserve()
	if !ok {
		return false
	}
	copy(slot, src)
	r.Commit()
	return true
}

// Dequeue copies the oldest slot into dst. It reports false when the ring
// is empty.
func (r *Ring) Dequeue(dst []byte) bool {
	slot, ok := r.Front()
	if !ok {
		return false
	}
	copy(dst, slot)
	r.Release()
	return true
}
