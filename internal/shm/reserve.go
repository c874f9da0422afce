package shm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// SegmentSlots is the slot count of a ring segment: 16 slots, 1 KiB of
// 64-byte nqes. It divides every ring depth of 16 or more, so every
// point where a ring wraps is a segment boundary too.
const SegmentSlots = 16

// A segment is SegmentSlots slots of a reserve's slab. A ring links the
// segments it holds in position order; a ring shallower than
// SegmentSlots uses the first depth slots of each.
type segment struct {
	buf []byte
	// base is the position of the segment's first slot in the ring that
	// holds it: set by the producer when it takes the segment, and again
	// when it reuses the segment for the next lap of an empty ring.
	base atomic.Uint64
	// next is the segment that follows in the ring, nil until the
	// producer links it. A segment is linked at most once per hold.
	next atomic.Pointer[segment]
	link *segment // the reserve's free list
}

// A SlotReserve backs the slots of a VM↔NSM pair's rings: a slab of
// segments that the rings draw from as their occupancy grows and give
// back as they drain, so a ring costs the segments its occupancy spans,
// not its depth (DESIGN.md §17). A reserve grows by a slab only when
// every segment is in use and never shrinks.
//
// Take and give run under one mutex. A pair's rings are produced and
// consumed on one goroutine in production, so it is never contended
// there; it keeps a reserve shared by rings on different goroutines
// safe.
type SlotReserve struct {
	slotSize int
	per      int // segments per slab

	mu    sync.Mutex
	free  *segment // LIFO through link
	nfree int
	held  int
	slabs int
}

// NewSlotReserve returns a reserve of slotSize-byte slots that grows by
// slabs of slots slots, a positive multiple of SegmentSlots. It holds
// its first slab from the start, so rings that stay within it allocate
// nothing after set-up.
func NewSlotReserve(slots, slotSize int) (*SlotReserve, error) {
	if slots <= 0 || slots%SegmentSlots != 0 {
		return nil, fmt.Errorf("shm: reserve slab of %d slots is not a positive multiple of %d", slots, SegmentSlots)
	}
	if slotSize <= 0 {
		return nil, fmt.Errorf("shm: non-positive slot size %d", slotSize)
	}
	r := &SlotReserve{slotSize: slotSize, per: slots / SegmentSlots}
	r.grow()
	return r, nil
}

// Slabs returns the number of slabs allocated so far.
func (r *SlotReserve) Slabs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.slabs
}

// SlabSegments returns the segment count of one slab.
func (r *SlotReserve) SlabSegments() int { return r.per }

// Bytes returns the slot bytes the reserve has allocated.
func (r *SlotReserve) Bytes() int {
	return r.Slabs() * r.per * SegmentSlots * r.slotSize
}

// Held returns the segments rings hold. It and Free are counted apart,
// so Held()+Free() == Slabs()*SlabSegments() checks that every segment
// is in exactly one place.
func (r *SlotReserve) Held() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.held
}

// Free returns the segments on the free list.
func (r *SlotReserve) Free() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nfree
}

// take hands out an unlinked segment, growing the reserve by a slab if
// every segment is held.
func (r *SlotReserve) take() *segment {
	r.mu.Lock()
	if r.free == nil {
		r.grow()
	}
	s := r.free
	r.free, s.link = s.link, nil
	r.nfree--
	r.held++
	s.next.Store(nil)
	r.mu.Unlock()
	return s
}

// give returns a segment the ring holding it has read to the end and
// left.
func (r *SlotReserve) give(s *segment) {
	r.mu.Lock()
	s.link, r.free = r.free, s
	r.nfree++
	r.held--
	r.mu.Unlock()
}

// grow allocates a slab and puts its segments on the free list, the
// slab's first segment on top.
func (r *SlotReserve) grow() {
	size := SegmentSlots * r.slotSize
	buf := make([]byte, r.per*size)
	segs := make([]segment, r.per)
	for i := len(segs) - 1; i >= 0; i-- {
		s := &segs[i]
		s.buf = buf[i*size : (i+1)*size : (i+1)*size]
		s.link, r.free = r.free, s
	}
	r.nfree += r.per
	r.slabs++
}
