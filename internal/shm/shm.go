// Package shm is NetKernel's shared-memory substrate.
//
// The paper builds two communication channels between a tenant VM and its
// Network Stack Module (§3.1): a small IVSHMEM region holding ring-buffer
// queues for nqe metadata, and a huge-page region (2 MB pages) holding the
// actual application data, with a unique region per VM↔NSM pair for
// isolation. This package reproduces both on plain process memory:
//
//   - HugePages: a chunk allocator over a region of its own, standing in
//     for the huge pages GuestLib and ServiceLib copy data through. A
//     region keeps its own address space, offsets and bounds checks, but
//     backs no memory of its own: on a chunk's first touch it takes one
//     64 KiB unit of a Pool, which carves units from 2 MB pages shared
//     by every region of the testbed's hosts. Its chunk metadata grows
//     the same way: reference counts come in one block per region page
//     its allocation cursor has reached, and the freed list is threaded
//     through them.
//   - Ring: a single-producer single-consumer ring buffer of fixed-size
//     slots, standing in for the queue devices. Its depth is capacity,
//     not cost: its slots are 16-slot segments (1 KiB of nqes) drawn
//     from a SlotReserve as it fills and given back as it drains, and
//     all the rings of a VM↔NSM pair share one reserve.
//
// Notification between the two sides is not a shared-memory object: the
// owners of a channel wake each other through nkchan.Pair's Kick hooks.
//
// The datapath cost the paper measures (Table 1 memory-copy latency, the
// ~12 ns nqe copy) is memory-copy cost, which this package incurs for
// real; cmd/nkbench table1 and micro, and the benchmark's ladder, time it.
package shm

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// PageSize is the huge-page size used by the prototype (QEMU IVSHMEM,
// §4.1): 2 MB.
const PageSize = 2 << 20

// DefaultPageCount matches the prototype's 40 huge pages per VM↔NSM pair.
const DefaultPageCount = 40

// UnitSize is the smallest unit a region backs: a thirty-second of a
// page, 64 KiB. A region whose chunks are larger backs one chunk per
// unit.
const UnitSize = PageSize / 32

// A Pool is the huge pages of one simulation, shared by every region on
// it: a testbed's hosts share one (DESIGN.md §17). A region backs a unit
// on its first touch by taking the next unit-sized windows of the pool's
// current page; the pool allocates a page only when the current one is
// used up, and never takes a unit back. Regions on one pool share pages,
// never units, and all carve units of one size, so no page's tail is
// ever left over.
type Pool struct {
	mu    sync.Mutex
	unit  int // the unit size every region on the pool carves; 0 until the first
	page  []byte
	heads [][]byte // the current page's UnitSize windows, made with it
	next  int      // the first window of heads not yet handed out
	pages int      // pages allocated so far
}

// NewPool returns a pool that has allocated no page.
func NewPool() *Pool { return &Pool{} }

// Pages returns the number of pages the pool has allocated.
func (p *Pool) Pages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pages
}

// carve registers a region that backs units of unit bytes. The first
// region fixes the pool's unit size; a region of another would leave a
// page tail no unit fits, so carve refuses it.
func (p *Pool) carve(unit int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.unit == 0 {
		p.unit = unit
	}
	if unit != p.unit {
		return fmt.Errorf("shm: a region of %d-byte units on a pool carving %d-byte units", unit, p.unit)
	}
	return nil
}

// back installs a size-byte unit in slot unless a racing first touch
// already has, and returns the slot's unit. Under the mutex no two
// callers take units for one slot, so every write lands in the unit
// every reader sees and the pool hands out no unit nobody holds.
func (p *Pool) back(slot *atomic.Pointer[[]byte], size int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if b := slot.Load(); b != nil {
		return *b
	}
	n := size / UnitSize
	if p.next+n > len(p.heads) {
		// The unit size divides the page, so the current page is used up.
		p.grow()
	}
	var b *[]byte
	if n == 1 {
		// The window's header was made with its page, so a first touch
		// allocates nothing.
		b = &p.heads[p.next]
	} else {
		// A unit of several windows (a chunk over UnitSize) gets a
		// header of its own.
		lo := p.next * UnitSize
		w := p.page[lo : lo+size : lo+size]
		b = &w
	}
	p.next += n
	slot.Store(b)
	return *b
}

// grow allocates the pool's next page and its windows' headers.
func (p *Pool) grow() {
	p.page = make([]byte, PageSize)
	p.heads = make([][]byte, PageSize/UnitSize)
	for i := range p.heads {
		p.heads[i] = p.page[i*UnitSize : (i+1)*UnitSize : (i+1)*UnitSize]
	}
	p.next = 0
	p.pages++
}

// A region is a contiguous shared-memory area. It stands in for an
// IVSHMEM device mapped into both a tenant VM and its NSM.
//
// Like a mapped hugetlbfs file, a region costs nothing until it is used:
// each unit is backed from the pool on the first access into it and
// stays backed for the region's life (DESIGN.md §17). The size is
// capacity, not cost.
type region struct {
	size  int
	shift uint                     // log2 of the unit size
	units []atomic.Pointer[[]byte] // nil until first touched
	pool  *Pool
}

// newRegion reserves a region of the given size over pool, backed in
// units of unit bytes: a power of two from UnitSize to PageSize. No unit
// is backed yet.
func newRegion(pool *Pool, size, unit int) *region {
	if size <= 0 {
		panic("shm: non-positive region size")
	}
	if unit < UnitSize || unit > PageSize || unit&(unit-1) != 0 {
		panic("shm: unit size must be a power of two from UnitSize to PageSize")
	}
	return &region{
		size:  size,
		shift: uint(bits.TrailingZeros(uint(unit))),
		units: make([]atomic.Pointer[[]byte], (size+unit-1)/unit),
		pool:  pool,
	}
}

// resident returns the number of units backed so far.
func (r *region) resident() int {
	n := 0
	for i := range r.units {
		if r.units[i].Load() != nil {
			n++
		}
	}
	return n
}

// window returns the [off, off+n) window of the region, backing its unit
// on first touch. The slice aliases region memory: writes through it are
// visible to both sides. The caller has already checked that the window
// lies within one unit of the region; a window that does not panics.
func (r *region) window(off, n int) []byte {
	u := uint(off) // off ≥ 0: unsigned, the unit divisions are a shift and a mask
	i, in := u>>r.shift, int(u&(1<<r.shift-1))
	var unit []byte
	if b := r.units[i].Load(); b != nil {
		unit = *b
	} else {
		unit = r.pool.back(&r.units[i], 1<<r.shift)
	}
	return unit[in : in+n : in+n]
}
