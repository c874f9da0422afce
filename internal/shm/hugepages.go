package shm

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// A Chunk is a fixed-size window of a huge-page region, identified by its
// byte offset. Chunks are what nqe data descriptors point at (§3.2): the
// sender copies application data into a chunk and enqueues an nqe carrying
// the chunk's offset and length; the receiver reads the bytes back out and
// frees the chunk.
type Chunk struct {
	// Offset is the chunk's byte offset within its region.
	Offset uint64
}

// HugePages is a refcounted chunk allocator over a shared region,
// standing in for the per-VM↔NSM huge-page area. Every chunk has the
// same size, whatever it carries: a 64 B message recycles a chunk on the
// unit the pair's bulk traffic already backs (DESIGN.md §11, §17).
//
// Chunks are handed out from one LIFO of freed chunks under one mutex
// and, when that is empty, from a bump cursor over the chunks never
// handed out. The chunks ever handed out are therefore exactly the
// lowest peak-outstanding indexes, and a pair backs the units that peak
// spans and no more. Production callers allocate from one goroutine
// (the event loop, or a RealClock callback under its lock), so the
// mutex is never contended there; it keeps the allocator safe for any
// concurrent caller.
//
// Chunks carry a reference count: Alloc hands out a chunk with one
// reference, Retain adds one (e.g. while a TCP send buffer holds a span
// into the chunk and the NSM still tracks it), and Free drops one. The
// chunk returns to the free list only when the last reference is
// dropped. Releasing a chunk that is already free panics.
//
// The counts cost what the cursor has reached, not the region's
// capacity: they live in one block per region page, made when the
// cursor first enters that page's chunks. The freed list is threaded
// through them: a freed chunk's count holds -(index of the chunk freed
// before it + 2), so every free chunk reads -1 or less and a held one
// 1 or more (DESIGN.md §8).
type HugePages struct {
	region    *region
	chunkSize int
	chunks    int32 // capacity in chunks
	pageShift uint  // log2 of the chunks on one region page

	mu     sync.Mutex
	freed  int32        // the most recently freed chunk's index, -1 if none
	nfreed int32        // chunks on the freed list
	next   atomic.Int32 // index of the first chunk never handed out

	// blocks[p] holds the counts of page p's chunks, nil until the cursor
	// enters the page. Alloc makes a block under the mutex before its
	// cursor store, so a chunk below a loaded cursor has its block.
	blocks  [][]atomic.Int32
	retains atomic.Uint64 // Retain calls, for Retains
}

// NewHugePages builds an allocator of pages×PageSize bytes divided into
// chunkSize chunks, over a pool of its own. chunkSize must divide
// PageSize. The region is reserved, not backed: each unit is backed when
// a chunk on it is first touched.
func NewHugePages(pages, chunkSize int) (*HugePages, error) {
	return NewHugePagesIn(nil, pages, chunkSize)
}

// NewHugePagesIn is NewHugePages over pool, whose pages the region's
// units are carved from; a nil pool means a private one. A region's unit
// is UnitSize, or one chunk if the chunk is larger, and every region on
// one pool must have the same unit: one of another size is an error.
func NewHugePagesIn(pool *Pool, pages, chunkSize int) (*HugePages, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("shm: non-positive page count %d", pages)
	}
	if chunkSize <= 0 || PageSize%chunkSize != 0 {
		return nil, fmt.Errorf("shm: chunk size %d must be positive and divide the %d-byte page", chunkSize, PageSize)
	}
	if pool == nil {
		pool = NewPool()
	}
	unit := max(UnitSize, chunkSize)
	if err := pool.carve(unit); err != nil {
		return nil, err
	}
	perPage := PageSize / chunkSize // a power of two, as chunkSize divides PageSize
	return &HugePages{
		region:    newRegion(pool, pages*PageSize, unit),
		chunkSize: chunkSize,
		chunks:    int32(pages * perPage),
		pageShift: uint(bits.TrailingZeros(uint(perPage))),
		freed:     -1,
		blocks:    make([][]atomic.Int32, pages),
	}, nil
}

// ChunkSize returns the chunk size in bytes.
func (h *HugePages) ChunkSize() int { return h.chunkSize }

// Chunks returns the total number of chunks.
func (h *HugePages) Chunks() int { return int(h.chunks) }

// Pages returns the region's capacity in pages.
func (h *HugePages) Pages() int { return h.region.size / PageSize }

// Units returns the region's unit count: the most Resident can ever
// read.
func (h *HugePages) Units() int { return len(h.region.units) }

// UnitSize returns the size of the units the region backs, in bytes.
func (h *HugePages) UnitSize() int { return 1 << h.region.shift }

// Resident returns the number of units backed so far. A unit is backed
// by the first Bytes, Write or Read of a chunk on it and never released,
// so the count only grows (DESIGN.md §17).
func (h *HugePages) Resident() int { return h.region.resident() }

// FreeCount returns the number of chunks currently available.
func (h *HugePages) FreeCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.nfreed + h.chunks - h.next.Load())
}

// LiveRefs sums the reference counts of all in-use chunks. At quiescence
// (no chunk handed out) it must be zero; the chaos harness asserts this
// together with FreeCount()==Chunks().
func (h *HugePages) LiveRefs() int {
	n := 0
	for _, b := range h.blocks[:h.made()] {
		for i := range b {
			n += max(int(b[i].Load()), 0)
		}
	}
	return n
}

// RefCount reports the chunk's current reference count (0 = free).
func (h *HugePages) RefCount(c Chunk) int {
	if r := h.count(h.index(c)); r != nil {
		return max(int(r.Load()), 0)
	}
	return 0
}

// Held reports whether c names a chunk of the region that is handed out:
// its offset chunk-aligned and inside the region, its reference count
// above zero. Unlike the methods that take a chunk it never panics, so a
// descriptor from an untrusted producer can be checked before anything
// trusts it.
func (h *HugePages) Held(c Chunk) bool {
	size := uint64(h.chunkSize)
	idx := c.Offset / size
	// The cursor never passes the region's last chunk, so a chunk below
	// it lies inside the region.
	return c.Offset%size == 0 && idx < uint64(h.next.Load()) && h.at(int32(idx)).Load() > 0
}

// Alloc reserves one chunk with a reference count of one. It reports
// false when every chunk is handed out, which callers treat as
// backpressure (§3.2: the sender stalls until the receiver consumes and
// frees).
func (h *HugePages) Alloc() (Chunk, bool) {
	h.mu.Lock()
	var idx int32
	if idx = h.freed; idx >= 0 {
		r := h.at(idx)
		h.freed = -r.Load() - 2
		h.nfreed--
		r.Store(1)
	} else if idx = h.next.Load(); idx < h.chunks {
		if p := idx >> h.pageShift; h.blocks[p] == nil {
			h.blocks[p] = make([]atomic.Int32, 1<<h.pageShift)
		}
		h.at(idx).Store(1)
		h.next.Store(idx + 1)
	} else {
		h.mu.Unlock()
		return Chunk{}, false
	}
	h.mu.Unlock()
	return Chunk{Offset: uint64(idx) * uint64(h.chunkSize)}, true
}

// AllocSized is Alloc; its arguments are ignored. It remains for
// callers written against the earlier two-class allocator: the
// benchmark's shm.pages_ns_per_chunk rung still calls it.
func (h *HugePages) AllocSized(int, ...int) (Chunk, bool) { return h.Alloc() }

// Retain adds a reference to an allocated chunk. It panics if the chunk
// is currently free, leaving its count as it was: taking a reference on
// unowned memory is the same descriptor-corruption class of bug as a
// double free.
func (h *HugePages) Retain(c Chunk) {
	h.retains.Add(1)
	if r := h.count(h.index(c)); r != nil {
		for n := r.Load(); n > 0; n = r.Load() {
			if r.CompareAndSwap(n, n+1) {
				return
			}
		}
	}
	panic(fmt.Sprintf("shm: retain of free chunk at offset %d", c.Offset))
}

// Retains returns the number of Retain calls so far, which tests read to
// count hand-offs.
func (h *HugePages) Retains() uint64 { return h.retains.Load() }

// Free drops one reference; the chunk returns to the free list when the
// last reference is dropped. Releasing an already-free chunk or a
// misaligned offset panics and changes no count: both indicate
// descriptor corruption, which in a real deployment would be a guest
// escaping its huge-page window.
func (h *HugePages) Free(c Chunk) {
	idx := h.index(c)
	if r := h.count(idx); r != nil {
		for n := r.Load(); n > 0; n = r.Load() {
			if n > 1 {
				if r.CompareAndSwap(n, n-1) {
					return // other holders remain
				}
				continue
			}
			// The last reference: the count becomes the freed list's link
			// under the mutex, so no Alloc reads it half-made.
			h.mu.Lock()
			if r.CompareAndSwap(1, -h.freed-2) {
				h.freed = idx
				h.nfreed++
				h.mu.Unlock()
				return
			}
			h.mu.Unlock()
		}
	}
	panic(fmt.Sprintf("shm: double free of chunk at offset %d", c.Offset))
}

// Release is Free of the chunk at offset token. It makes HugePages the
// Releaser a TCP send buffer hands a borrowed chunk back to: the span
// holds (pages, offset) as data, where a closure would cost an
// allocation per hand-off.
func (h *HugePages) Release(token uint64) { h.Free(Chunk{Offset: token}) }

// index maps a chunk offset to its chunk index, panicking on an offset
// that is misaligned or outside the region.
func (h *HugePages) index(c Chunk) int32 {
	if c.Offset%uint64(h.chunkSize) != 0 || c.Offset >= uint64(h.region.size) {
		panic(fmt.Sprintf("shm: chunk offset %d invalid for chunk size %d, region %d", c.Offset, h.chunkSize, h.region.size))
	}
	return int32(c.Offset / uint64(h.chunkSize))
}

// made returns the number of count blocks made so far: one per region
// page the cursor has entered.
func (h *HugePages) made() int {
	perPage := int32(1) << h.pageShift
	return int((h.next.Load() + perPage - 1) >> h.pageShift)
}

// count returns chunk idx's count, or nil if the cursor has not reached
// the chunk: a chunk never handed out, whose block may not exist.
func (h *HugePages) count(idx int32) *atomic.Int32 {
	if idx >= h.next.Load() {
		return nil
	}
	return h.at(idx)
}

// at returns chunk idx's count, whose block must exist.
func (h *HugePages) at(idx int32) *atomic.Int32 {
	return &h.blocks[idx>>h.pageShift][idx&(1<<h.pageShift-1)]
}

// Bytes returns the chunk's full window. The slice aliases shared
// memory.
func (h *HugePages) Bytes(c Chunk) []byte {
	// index checks the offset; a chunk never spans two units because the
	// chunk size divides the unit.
	h.index(c)
	return h.region.window(int(c.Offset), h.chunkSize)
}

// Write copies data into the chunk and returns the number of bytes
// copied, truncating at the chunk's capacity. This is GuestLib's
// send-side copy (§3.2: "GuestLib intercepts the call and puts the data
// into the huge pages").
func (h *HugePages) Write(c Chunk, data []byte) int {
	return copy(h.Bytes(c), data)
}

// Read copies n bytes of the chunk into buf, returning the number copied.
// This is the receive-side copy out of the huge pages.
func (h *HugePages) Read(c Chunk, buf []byte, n int) int {
	b := h.Bytes(c)
	if n > len(b) {
		n = len(b)
	}
	return copy(buf, b[:n])
}
