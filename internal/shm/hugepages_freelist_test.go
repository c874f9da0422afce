package shm

import (
	"math/rand/v2"
	"sync"
	"testing"
)

func TestHugePagesRetainDefersFree(t *testing.T) {
	h, _ := NewHugePages(1, PageSize/4)
	c, ok := h.Alloc()
	if !ok {
		t.Fatal("alloc failed")
	}
	if got := h.RefCount(c); got != 1 {
		t.Fatalf("fresh chunk RefCount = %d, want 1", got)
	}
	h.Retain(c)
	if got := h.RefCount(c); got != 2 {
		t.Fatalf("after Retain RefCount = %d, want 2", got)
	}
	h.Free(c)
	if got := h.RefCount(c); got != 1 {
		t.Fatalf("after first Free RefCount = %d, want 1", got)
	}
	if h.FreeCount() != h.Chunks()-1 {
		t.Fatalf("chunk returned to pool with a live reference: FreeCount = %d", h.FreeCount())
	}
	h.Free(c)
	if h.FreeCount() != h.Chunks() {
		t.Fatalf("FreeCount = %d after last reference dropped, want %d", h.FreeCount(), h.Chunks())
	}
	if h.LiveRefs() != 0 {
		t.Fatalf("LiveRefs = %d at quiescence", h.LiveRefs())
	}
}

func TestHugePagesRetainFreeChunkPanics(t *testing.T) {
	h, _ := NewHugePages(1, 8192)
	c, _ := h.Alloc()
	h.Free(c)
	defer func() {
		if recover() == nil {
			t.Fatal("Retain of a free chunk did not panic")
		}
	}()
	h.Retain(c)
}

// TestHugePagesExhaustsEveryChunk drains a class through Alloc: never-used
// chunks come out in ascending order until every one is handed out, an
// exhausted class refuses, a freed chunk is the next one handed out, and
// freeing everything restores the full count.
func TestHugePagesExhaustsEveryChunk(t *testing.T) {
	h, _ := NewHugePages(2, PageSize/32) // 64 chunks over two pages
	var held []Chunk
	for i := 0; i < h.Chunks(); i++ {
		c, ok := h.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed with %d chunks outstanding", i, len(held))
		}
		if want := uint64(i * h.ChunkSize()); c.Offset != want {
			t.Fatalf("alloc %d at offset %d, want %d: a never-used chunk must come from the bottom", i, c.Offset, want)
		}
		held = append(held, c)
	}
	if _, ok := h.Alloc(); ok {
		t.Fatal("alloc succeeded on exhausted region")
	}
	if n := h.FreeCount(); n != 0 {
		t.Fatalf("FreeCount = %d on an exhausted region", n)
	}
	// LIFO: the chunk freed last is the one handed out next.
	h.Free(held[40])
	h.Free(held[7])
	if c, _ := h.Alloc(); c != held[7] {
		t.Fatalf("alloc after freeing %d and %d returned %d, want the most recent free", held[40].Offset, held[7].Offset, c.Offset)
	}
	if c, _ := h.Alloc(); c != held[40] {
		t.Fatalf("second alloc returned %d, want %d", c.Offset, held[40].Offset)
	}
	for _, c := range held {
		h.Free(c)
	}
	if h.FreeCount() != h.Chunks() {
		t.Fatalf("FreeCount = %d after freeing all, want %d", h.FreeCount(), h.Chunks())
	}
}

// TestHugePagesPeakOracle drives seeded random Alloc/AllocSized/Retain/Free
// sequences over both size classes against a model of the allocator.
// After every step the pages backed must be exactly the pages each
// class's peak outstanding chunks span — ⌈peak × chunk size / PageSize⌉
// per class, every handed-out chunk being touched — and FreeCount,
// LiveRefs, the class each chunk came from and the uniqueness of live
// offsets must all agree with the model.
func TestHugePagesPeakOracle(t *testing.T) {
	const (
		bulkSize  = PageSize / 8  // 8 bulk chunks per page
		smallSize = PageSize / 16 // 16 small chunks per page
		steps     = 3000
	)
	for seed := uint64(1); seed <= 16; seed++ {
		h, err := NewHugePagesSized(3, bulkSize, 1, smallSize)
		if err != nil {
			t.Fatal(err)
		}
		nBulk, nSmall := h.Chunks()-h.SmallChunks(), h.SmallChunks()
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		refs := map[uint64]int{} // live chunk offset → model refcount
		var live []Chunk         // the keys of refs, for random picks
		var out, peak [2]int     // outstanding and peak chunks: bulk, small
		class := func(c Chunk) int {
			if c.Offset >= 3*PageSize {
				return 1
			}
			return 0
		}
		pages := func(n, size int) int { return (n*size + PageSize - 1) / PageSize }
		take := func(c Chunk, ok bool, want int) {
			t.Helper()
			if want < 0 {
				if ok {
					t.Fatalf("seed %d: alloc succeeded at offset %d with its classes exhausted", seed, c.Offset)
				}
				return
			}
			if !ok {
				t.Fatalf("seed %d: alloc failed with %d/%d bulk and %d/%d small outstanding", seed, out[0], nBulk, out[1], nSmall)
			}
			if got := class(c); got != want {
				t.Fatalf("seed %d: chunk at %d from class %d, want %d", seed, c.Offset, got, want)
			}
			if _, dup := refs[c.Offset]; dup {
				t.Fatalf("seed %d: offset %d handed out twice", seed, c.Offset)
			}
			h.Write(c, []byte{byte(seed)})
			refs[c.Offset] = 1
			live = append(live, c)
			out[want]++
			peak[want] = max(peak[want], out[want])
		}
		for step := 0; step < steps; step++ {
			// Alternate allocation-heavy and free-heavy phases so runs
			// both exhaust the classes and drain them.
			allocBias := 0.3
			if step/200%2 == 0 {
				allocBias = 0.7
			}
			switch r := rng.Float64(); {
			case r < allocBias/2:
				c, ok := h.Alloc()
				want := 0
				if out[0] == nBulk {
					want = -1
				}
				take(c, ok, want)
			case r < allocBias:
				size := 1 + rng.IntN(bulkSize)
				c, ok := h.AllocSized(size)
				want := 0
				switch {
				case size <= smallSize && out[1] < nSmall:
					want = 1
				case out[0] == nBulk:
					want = -1
				}
				take(c, ok, want)
			case len(live) > 0 && r < allocBias+0.1:
				c := live[rng.IntN(len(live))]
				h.Retain(c)
				refs[c.Offset]++
			case len(live) > 0:
				i := rng.IntN(len(live))
				c := live[i]
				h.Free(c)
				if refs[c.Offset]--; refs[c.Offset] == 0 {
					delete(refs, c.Offset)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					out[class(c)]--
				}
			}
			want := pages(peak[0], bulkSize) + pages(peak[1], smallSize)
			if got := h.Resident(); got != want {
				t.Fatalf("seed %d step %d: Resident = %d, want %d for peaks of %d bulk and %d small chunks",
					seed, step, got, want, peak[0], peak[1])
			}
			if got, want := h.FreeCount(), h.Chunks()-out[0]-out[1]; got != want {
				t.Fatalf("seed %d step %d: FreeCount = %d, want %d", seed, step, got, want)
			}
			sum := 0
			for _, n := range refs {
				sum += n
			}
			if got := h.LiveRefs(); got != sum {
				t.Fatalf("seed %d step %d: LiveRefs = %d, want %d", seed, step, got, sum)
			}
		}
		if peak[0] < nBulk || peak[1] < nSmall {
			t.Fatalf("seed %d: peaks %d/%d bulk and %d/%d small: the sequence never exhausted both classes", seed, peak[0], nBulk, peak[1], nSmall)
		}
	}
}

// TestHugePagesConcurrentAllocFree is the wall-clock contention scenario:
// guest-side goroutines allocating while NSM-side goroutines free, with
// occasional Retain/Free pairs riding along. Run under -race; the
// assertions check conservation, not timing.
func TestHugePagesConcurrentAllocFree(t *testing.T) {
	h, _ := NewHugePages(2, 8192) // 512 chunks
	const (
		workers = 8
		rounds  = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var held []Chunk
			for i := 0; i < rounds; i++ {
				if c, ok := h.Alloc(); ok {
					h.Bytes(c)[0] = byte(w)
					if i%3 == 0 {
						h.Retain(c)
						h.Free(c)
					}
					held = append(held, c)
				}
				// Free in bursts so alloc and free phases overlap across
				// goroutines rather than pairing up within one.
				if len(held) > 16 {
					for _, c := range held {
						h.Free(c)
					}
					held = held[:0]
				}
			}
			for _, c := range held {
				h.Free(c)
			}
		}(w)
	}
	wg.Wait()
	if h.FreeCount() != h.Chunks() {
		t.Fatalf("FreeCount = %d after quiescence, want %d", h.FreeCount(), h.Chunks())
	}
	if h.LiveRefs() != 0 {
		t.Fatalf("LiveRefs = %d after quiescence, want 0", h.LiveRefs())
	}
}
