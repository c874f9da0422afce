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

// hugePageShards bounds the number of free-list shards. Small pools get
// one shard per chunk; anything realistic gets the full set.
const hugePageShards = 8

// DefaultSmallChunkSize is the small size class granularity (DESIGN.md
// §11): big enough for an RPC header + tiny payload, small enough that
// a 64 B message does not monopolize an 8 KB bulk chunk.
const DefaultSmallChunkSize = 256

type hpShard struct {
	mu   sync.Mutex
	free []int32
}

// chunkClass is one size class's allocation state: a contiguous index
// range of equally-sized chunks with sharded LIFO free lists.
type chunkClass struct {
	chunkSize int
	baseOff   uint64 // byte offset of the class's first chunk
	baseIdx   int32  // global chunk index of the class's first chunk
	count     int32
	shardSize int // chunk indexes per shard (class-local)
	shards    []hpShard
	cursor    atomic.Uint32 // rotating preferred shard
}

// init lays out the class's free lists so the lowest chunk pops first
// (cache warmth, and the historical allocation order within a shard).
func (cc *chunkClass) init() {
	nshards := hugePageShards
	if int(cc.count) < nshards {
		nshards = int(cc.count)
	}
	cc.shardSize = (int(cc.count) + nshards - 1) / nshards
	cc.shards = make([]hpShard, nshards)
	for i := cc.count - 1; i >= 0; i-- {
		s := &cc.shards[int(i)/cc.shardSize]
		s.free = append(s.free, cc.baseIdx+i)
	}
}

func (cc *chunkClass) allocFrom(start int) (int32, bool) {
	for i := 0; i < len(cc.shards); i++ {
		s := &cc.shards[(start+i)%len(cc.shards)]
		s.mu.Lock()
		n := len(s.free)
		if n == 0 {
			s.mu.Unlock()
			continue
		}
		idx := s.free[n-1]
		s.free = s.free[:n-1]
		s.mu.Unlock()
		return idx, true
	}
	return -1, false
}

func (cc *chunkClass) release(idx int32) {
	s := &cc.shards[int(idx-cc.baseIdx)/cc.shardSize]
	s.mu.Lock()
	s.free = append(s.free, idx)
	s.mu.Unlock()
}

func (cc *chunkClass) freeCount() int {
	n := 0
	for i := range cc.shards {
		cc.shards[i].mu.Lock()
		n += len(cc.shards[i].free)
		cc.shards[i].mu.Unlock()
	}
	return n
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
// The free lists are sharded: each chunk has a home shard (a contiguous
// index range), Free returns a chunk to its home shard, and Alloc starts
// from a rotating preferred shard and steals from the others on a miss.
// In the wall-clock domain the guest side allocates while the NSM side
// frees (and vice versa for receive); sharding keeps those two from
// serializing on a single mutex while each shard's LIFO order preserves
// cache warmth.
//
// Chunks carry a reference count: Alloc hands out a chunk with one
// reference, Retain adds one (e.g. while a TCP send buffer holds a span
// into the chunk and the NSM still tracks it), and Free drops one. The
// chunk returns to its home free list only when the last reference is
// dropped. Releasing a chunk that is already free panics, as before.
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
		big: chunkClass{
			chunkSize: chunkSize, baseOff: 0, baseIdx: 0, count: int32(nBig),
		},
		refs: make([]atomic.Int32, nBig+nSmall),
	}
	h.big.init()
	if nSmall > 0 {
		h.small = chunkClass{
			chunkSize: smallSize,
			baseOff:   uint64(pages) * PageSize,
			baseIdx:   int32(nBig),
			count:     int32(nSmall),
		}
		h.small.init()
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
func (h *HugePages) FreeCount() int {
	n := h.big.freeCount()
	if h.small.count > 0 {
		n += h.small.freeCount()
	}
	return n
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

// SizeOf reports the chunk's capacity: its class's chunk size.
func (h *HugePages) SizeOf(c Chunk) int { return h.classOf(h.index(c)).chunkSize }

// Alloc reserves one bulk chunk with a reference count of one. It
// reports false when the class is exhausted, which callers treat as
// backpressure (§3.2: the sender stalls until the receiver consumes and
// frees).
//
// The search starts at a rotating preferred shard and work-steals from
// the remaining shards on a miss, so concurrent allocators spread across
// the free lists instead of queueing on one lock.
func (h *HugePages) Alloc() (Chunk, bool) {
	return h.allocClass(&h.big, int(h.big.cursor.Add(1)-1))
}

// AllocOn reserves one bulk chunk preferring the given shard's free
// list, falling back to work-stealing like Alloc. Sharded datapath
// layers pass their flow shard here so a connection's chunks cluster on
// one free list (cache affinity), without perturbing the rotating cursor
// that unsharded callers share.
func (h *HugePages) AllocOn(pref int) (Chunk, bool) {
	if pref < 0 {
		pref = -pref
	}
	return h.allocClass(&h.big, pref)
}

// AllocSized reserves the cheapest chunk that holds size bytes on the
// preferred shard: the small class when the payload fits and the class
// exists (falling back to a bulk chunk when the small class is
// exhausted), the bulk class otherwise. This is the short-flow
// allocation entry point — tiny RPCs recycle 256 B slots instead of
// cycling 8 KB bulk chunks through the free lists.
func (h *HugePages) AllocSized(size, pref int) (Chunk, bool) {
	if pref < 0 {
		pref = -pref
	}
	if h.small.count > 0 && size <= h.small.chunkSize {
		if c, ok := h.allocClass(&h.small, pref); ok {
			return c, true
		}
	}
	return h.allocClass(&h.big, pref)
}

func (h *HugePages) allocClass(cc *chunkClass, start int) (Chunk, bool) {
	idx, ok := cc.allocFrom(start % len(cc.shards))
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

// Free drops one reference; the chunk returns to its home shard's free
// list when the last reference is dropped. Releasing an already-free
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
