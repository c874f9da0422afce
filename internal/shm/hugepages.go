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

// DefaultSmallChunkSize is the small size class granularity (DESIGN.md
// §11): big enough for an RPC header + tiny payload, small enough that
// a 64 B message does not monopolize an 8 KB bulk chunk.
const DefaultSmallChunkSize = 256

// chunkClass is one size class's allocation state: a contiguous index
// range of equally-sized chunks, handed out from one LIFO of freed
// chunks and, when that is empty, from a bump cursor over the chunks
// never handed out. The chunks ever handed out are therefore exactly
// the lowest peak-outstanding indexes, and the pages backed are the
// pages that peak needs (DESIGN.md §17).
type chunkClass struct {
	chunkSize int
	baseOff   uint64 // byte offset of the class's first chunk
	baseIdx   int32  // global chunk index of the class's first chunk
	count     int32

	mu   sync.Mutex
	free []int32 // freed chunks' global indexes, most recent last
	next int32   // class-local index of the first chunk never handed out
}

// init sizes the free list for every chunk at once, so Free never grows
// it.
func (cc *chunkClass) init(chunkSize int, baseOff uint64, baseIdx int32, count int) {
	cc.chunkSize, cc.baseOff, cc.baseIdx, cc.count = chunkSize, baseOff, baseIdx, int32(count)
	cc.free = make([]int32, 0, count)
}

func (cc *chunkClass) alloc() (int32, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if n := len(cc.free); n > 0 {
		idx := cc.free[n-1]
		cc.free = cc.free[:n-1]
		return idx, true
	}
	if cc.next == cc.count {
		return -1, false
	}
	cc.next++
	return cc.baseIdx + cc.next - 1, true
}

func (cc *chunkClass) release(idx int32) {
	cc.mu.Lock()
	cc.free = append(cc.free, idx)
	cc.mu.Unlock()
}

func (cc *chunkClass) freeCount() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.free) + int(cc.count-cc.next)
}

// HugePages is a refcounted chunk allocator over a shared Region,
// standing in for the per-VM↔NSM huge-page area.
//
// The region holds up to two size classes: the bulk class (ChunkSize,
// the streaming data path) and an optional small class (SmallChunkSize)
// carved from dedicated pages at the top of the region, so a 64 B RPC
// does not burn a 2 MB-backed bulk chunk per round trip (DESIGN.md
// §11). A chunk's class is implied by its offset, so descriptors on the
// nqe wire need no class field and Free/Retain/Bytes work unchanged.
//
// Each class has one free list under one mutex. Alloc reuses the most
// recently freed chunk and takes a never-used one only when none is
// free, so a pair backs the pages its peak outstanding chunks span and
// no more. Production callers allocate from one goroutine (the event
// loop, or a RealClock callback under its lock), so the mutex is never
// contended there; it keeps the allocator safe for any concurrent caller.
//
// Chunks carry a reference count: Alloc hands out a chunk with one
// reference, Retain adds one (e.g. while a TCP send buffer holds a span
// into the chunk and the NSM still tracks it), and Free drops one. The
// chunk returns to its class's free list only when the last reference
// is dropped. Releasing a chunk that is already free panics.
type HugePages struct {
	region *Region

	big     chunkClass
	small   chunkClass // count 0 when the region has no small class
	refs    []atomic.Int32
	retains atomic.Uint64 // Retain calls, for Retains
}

// NewHugePages builds an allocator of pages×PageSize bytes divided into
// chunkSize chunks. chunkSize must divide PageSize.
func NewHugePages(pages, chunkSize int) (*HugePages, error) {
	return NewHugePagesSized(pages, chunkSize, 0, 0)
}

// NewHugePagesSized builds an allocator with pages×PageSize bytes of
// chunkSize bulk chunks plus smallPages×PageSize bytes of smallSize
// chunks (the short-flow size class). smallPages 0 disables the small
// class; smallSize 0 selects DefaultSmallChunkSize. The pages are
// reserved, not backed: each is backed when a chunk on it is first
// touched.
func NewHugePagesSized(pages, chunkSize, smallPages, smallSize int) (*HugePages, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("shm: non-positive page count %d", pages)
	}
	if chunkSize <= 0 || PageSize%chunkSize != 0 {
		return nil, fmt.Errorf("shm: chunk size %d must be positive and divide the %d-byte page", chunkSize, PageSize)
	}
	if smallPages < 0 {
		return nil, fmt.Errorf("shm: negative small page count %d", smallPages)
	}
	if smallPages > 0 {
		if smallSize == 0 {
			smallSize = DefaultSmallChunkSize
		}
		if smallSize <= 0 || PageSize%smallSize != 0 {
			return nil, fmt.Errorf("shm: small chunk size %d must be positive and divide the %d-byte page", smallSize, PageSize)
		}
		if smallSize >= chunkSize {
			return nil, fmt.Errorf("shm: small chunk size %d must be below the bulk chunk size %d", smallSize, chunkSize)
		}
	}
	nBig := pages * (PageSize / chunkSize)
	nSmall := 0
	if smallPages > 0 {
		nSmall = smallPages * (PageSize / smallSize)
	}
	h := &HugePages{
		region: NewRegion((pages + smallPages) * PageSize),
		refs:   make([]atomic.Int32, nBig+nSmall),
	}
	h.big.init(chunkSize, 0, 0, nBig)
	if nSmall > 0 {
		h.small.init(smallSize, uint64(pages)*PageSize, int32(nBig), nSmall)
	}
	return h, nil
}

// ChunkSize returns the bulk chunk size in bytes.
func (h *HugePages) ChunkSize() int { return h.big.chunkSize }

// SmallChunkSize returns the small-class chunk size, 0 when the region
// has no small class.
func (h *HugePages) SmallChunkSize() int {
	if h.small.count == 0 {
		return 0
	}
	return h.small.chunkSize
}

// Chunks returns the total number of chunks across both classes.
func (h *HugePages) Chunks() int { return len(h.refs) }

// Pages returns the region's page count across both classes: the most
// Resident can ever read.
func (h *HugePages) Pages() int { return h.region.Size() / PageSize }

// Resident returns the number of pages backed so far. A page is backed
// by the first Bytes, Write or Read of a chunk on it and never released,
// so the count only grows (DESIGN.md §17).
func (h *HugePages) Resident() int { return h.region.Resident() }

// SmallChunks returns the small-class chunk count (0 when disabled).
func (h *HugePages) SmallChunks() int { return int(h.small.count) }

// FreeCount returns the number of chunks currently available (both
// classes).
func (h *HugePages) FreeCount() int { return h.big.freeCount() + h.small.freeCount() }

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

// SizeOf reports the chunk's capacity: its class's chunk size.
func (h *HugePages) SizeOf(c Chunk) int { return h.classOf(h.index(c)).chunkSize }

// Alloc reserves one bulk chunk with a reference count of one. It
// reports false when the class is exhausted, which callers treat as
// backpressure (§3.2: the sender stalls until the receiver consumes and
// frees).
func (h *HugePages) Alloc() (Chunk, bool) { return h.allocClass(&h.big) }

// AllocSized reserves the cheapest chunk that holds size bytes: the
// small class when the payload fits and the class exists (falling back
// to a bulk chunk when the small class is exhausted), the bulk class
// otherwise. This is the short-flow allocation entry point — tiny RPCs
// recycle 256 B slots instead of cycling 8 KB bulk chunks through the
// free lists.
//
// Arguments after size are ignored. They were a free-list shard
// preference, which one list per class has no use for; they are still
// accepted so callers written against that signature compile.
func (h *HugePages) AllocSized(size int, _ ...int) (Chunk, bool) {
	if h.small.count > 0 && size <= h.small.chunkSize {
		if c, ok := h.allocClass(&h.small); ok {
			return c, true
		}
	}
	return h.allocClass(&h.big)
}

func (h *HugePages) allocClass(cc *chunkClass) (Chunk, bool) {
	idx, ok := cc.alloc()
	if !ok {
		return Chunk{}, false
	}
	h.refs[idx].Store(1)
	return h.chunkAt(idx), true
}

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

// Free drops one reference; the chunk returns to its class's free list
// when the last reference is dropped. Releasing an already-free
// chunk or a misaligned offset panics: both indicate descriptor
// corruption, which in a real deployment would be a guest escaping its
// huge-page window.
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
	h.classOf(idx).release(idx)
}

// Release is Free of the chunk at offset token. It makes HugePages the
// Releaser a TCP send buffer hands a borrowed chunk back to: the span
// holds (pages, offset) as data, where a closure would cost an
// allocation per hand-off.
func (h *HugePages) Release(token uint64) { h.Free(Chunk{Offset: token}) }

// classOf returns the size class owning a global chunk index.
func (h *HugePages) classOf(idx int32) *chunkClass {
	if idx >= h.big.count {
		return &h.small
	}
	return &h.big
}

// chunkAt returns the Chunk for a global index.
func (h *HugePages) chunkAt(idx int32) Chunk {
	cc := h.classOf(idx)
	return Chunk{Offset: cc.baseOff + uint64(idx-cc.baseIdx)*uint64(cc.chunkSize)}
}

// index maps a chunk offset to its global index, dispatching on the
// class boundary so both size classes share one refcount array.
func (h *HugePages) index(c Chunk) int32 {
	cc := &h.big
	if h.small.count > 0 && c.Offset >= h.small.baseOff {
		cc = &h.small
	}
	rel := c.Offset - cc.baseOff
	if rel%uint64(cc.chunkSize) != 0 || c.Offset >= uint64(h.region.Size()) {
		panic(fmt.Sprintf("shm: chunk offset %d invalid for chunk size %d, region %d", c.Offset, cc.chunkSize, h.region.Size()))
	}
	return cc.baseIdx + int32(rel/uint64(cc.chunkSize))
}

// Bytes returns the chunk's full window (its class's chunk size). The
// slice aliases shared memory.
func (h *HugePages) Bytes(c Chunk) []byte {
	// index has checked the offset; a chunk never spans two pages
	// because both classes start on a page and their sizes divide it.
	return h.region.window(int(c.Offset), h.classOf(h.index(c)).chunkSize)
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
