package shm

import (
	"fmt"
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
type HugePages struct {
	region    *region
	chunkSize int

	mu   sync.Mutex
	free []int32 // freed chunks' indexes, most recent last
	next int32   // index of the first chunk never handed out

	refs    []atomic.Int32
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
// is UnitSize, or one chunk if the chunk is larger.
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
	n := pages * (PageSize / chunkSize)
	return &HugePages{
		region:    newRegion(pool, pages*PageSize, max(UnitSize, chunkSize)),
		chunkSize: chunkSize,
		// Sized for every chunk at once, so Free never grows it.
		free: make([]int32, 0, n),
		refs: make([]atomic.Int32, n),
	}, nil
}

// ChunkSize returns the chunk size in bytes.
func (h *HugePages) ChunkSize() int { return h.chunkSize }

// Chunks returns the total number of chunks.
func (h *HugePages) Chunks() int { return len(h.refs) }

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
	return len(h.free) + len(h.refs) - int(h.next)
}

// LiveRefs sums the reference counts of all in-use chunks. At quiescence
// (no chunk handed out) it must be zero; the chaos harness asserts this
// together with FreeCount()==Chunks().
func (h *HugePages) LiveRefs() int {
	n := 0
	for i := range h.refs {
		n += int(h.refs[i].Load())
	}
	return n
}

// RefCount reports the chunk's current reference count (0 = free).
func (h *HugePages) RefCount(c Chunk) int { return int(h.refs[h.index(c)].Load()) }

// Held reports whether c names a chunk of the region that is handed out:
// its offset chunk-aligned and inside the region, its reference count
// above zero. Unlike the methods that take a chunk it never panics, so a
// descriptor from an untrusted producer can be checked before anything
// trusts it.
func (h *HugePages) Held(c Chunk) bool {
	size := uint64(h.chunkSize)
	idx := c.Offset / size
	return c.Offset%size == 0 && idx < uint64(len(h.refs)) && h.refs[idx].Load() > 0
}

// Alloc reserves one chunk with a reference count of one. It reports
// false when every chunk is handed out, which callers treat as
// backpressure (§3.2: the sender stalls until the receiver consumes and
// frees).
func (h *HugePages) Alloc() (Chunk, bool) {
	h.mu.Lock()
	var idx int32
	if n := len(h.free); n > 0 {
		idx = h.free[n-1]
		h.free = h.free[:n-1]
	} else if int(h.next) < len(h.refs) {
		idx = h.next
		h.next++
	} else {
		h.mu.Unlock()
		return Chunk{}, false
	}
	h.mu.Unlock()
	h.refs[idx].Store(1)
	return Chunk{Offset: uint64(idx) * uint64(h.chunkSize)}, true
}

// AllocSized is Alloc; its arguments are ignored. It remains for
// callers written against the earlier two-class allocator: the
// benchmark's shm.pages_ns_per_chunk rung still calls it.
func (h *HugePages) AllocSized(int, ...int) (Chunk, bool) { return h.Alloc() }

// Retain adds a reference to an allocated chunk. It panics if the chunk
// is currently free: taking a reference on unowned memory is the same
// descriptor-corruption class of bug as a double free.
func (h *HugePages) Retain(c Chunk) {
	h.retains.Add(1)
	idx := h.index(c)
	if n := h.refs[idx].Add(1); n <= 1 {
		h.refs[idx].Add(-1)
		panic(fmt.Sprintf("shm: retain of free chunk at offset %d", c.Offset))
	}
}

// Retains returns the number of Retain calls so far, which tests read to
// count hand-offs.
func (h *HugePages) Retains() uint64 { return h.retains.Load() }

// Free drops one reference; the chunk returns to the free list when the
// last reference is dropped. Releasing an already-free chunk or a
// misaligned offset panics: both indicate descriptor corruption, which
// in a real deployment would be a guest escaping its huge-page window.
func (h *HugePages) Free(c Chunk) {
	idx := h.index(c)
	n := h.refs[idx].Add(-1)
	if n < 0 {
		h.refs[idx].Add(1)
		panic(fmt.Sprintf("shm: double free of chunk at offset %d", c.Offset))
	}
	if n > 0 {
		return // other holders remain
	}
	h.mu.Lock()
	h.free = append(h.free, idx)
	h.mu.Unlock()
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
