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
// sequences against a model of the allocator, over three regions sharing
// one pool. After every step each region's resident units must be
// exactly the units its peak outstanding chunks span —
// ⌈peak × chunk size / unit size⌉, every handed-out chunk being touched —
// the pool's pages exactly those the regions' units fill, with no slack
// page, and FreeCount, LiveRefs and the uniqueness of live offsets must
// all agree with the model. It runs once with chunks of their own unit
// and once with two chunks to a UnitSize unit.
func TestHugePagesPeakOracle(t *testing.T) {
	const (
		regions = 3
		steps   = 6000
	)
	type model struct {
		h         *HugePages
		refs      map[uint64]int // live chunk offset → model refcount
		live      []Chunk        // the keys of refs, for random picks
		out, peak int            // outstanding and peak chunks
		resident  int            // resident units after the last step
	}
	for _, shape := range []struct{ pages, chunkSize int }{
		{3, PageSize / 8}, // 24 chunks, each its own unit
		{1, UnitSize / 2}, // 64 chunks, two to a unit
	} {
		chunkSize := shape.chunkSize
		for seed := uint64(1); seed <= 16; seed++ {
			pool := NewPool()
			ms := make([]*model, regions)
			for i := range ms {
				h, err := NewHugePagesIn(pool, shape.pages, chunkSize)
				if err != nil {
					t.Fatal(err)
				}
				ms[i] = &model{h: h, refs: map[uint64]int{}}
			}
			unit := ms[0].h.UnitSize()
			if unit != max(chunkSize, UnitSize) {
				t.Fatalf("chunk %d: unit of %d bytes, want %d", chunkSize, unit, max(chunkSize, UnitSize))
			}
			rng := rand.New(rand.NewPCG(seed, 0x5eed))
			for step := 0; step < steps; step++ {
				m := ms[rng.IntN(regions)]
				h := m.h
				// Alternate allocation-heavy and free-heavy phases so runs
				// both exhaust the regions and drain them.
				allocBias := 0.3
				if step/450%2 == 0 {
					allocBias = 0.7
				}
				switch r := rng.Float64(); {
				case r < allocBias:
					var c Chunk
					var ok bool
					if r < allocBias/2 {
						c, ok = h.Alloc()
					} else {
						c, ok = h.AllocSized(1 + rng.IntN(chunkSize))
					}
					if m.out == h.Chunks() {
						if ok {
							t.Fatalf("seed %d: alloc succeeded at offset %d with every chunk out", seed, c.Offset)
						}
						break
					}
					if !ok {
						t.Fatalf("seed %d: alloc failed with %d/%d chunks out", seed, m.out, h.Chunks())
					}
					if _, dup := m.refs[c.Offset]; dup {
						t.Fatalf("seed %d: offset %d handed out twice", seed, c.Offset)
					}
					h.Write(c, []byte{byte(seed)})
					m.refs[c.Offset] = 1
					m.live = append(m.live, c)
					m.out++
					m.peak = max(m.peak, m.out)
				case len(m.live) > 0 && r < allocBias+0.1:
					c := m.live[rng.IntN(len(m.live))]
					h.Retain(c)
					m.refs[c.Offset]++
				case len(m.live) > 0:
					i := rng.IntN(len(m.live))
					c := m.live[i]
					h.Free(c)
					if m.refs[c.Offset]--; m.refs[c.Offset] == 0 {
						delete(m.refs, c.Offset)
						m.live[i] = m.live[len(m.live)-1]
						m.live = m.live[:len(m.live)-1]
						m.out--
					}
				}
				m.resident = h.Resident()
				if got, want := m.resident, (m.peak*chunkSize+unit-1)/unit; got != want {
					t.Fatalf("chunk %d seed %d step %d: Resident = %d, want %d for a peak of %d chunks", chunkSize, seed, step, got, want, m.peak)
				}
				if got, want := h.FreeCount(), h.Chunks()-m.out; got != want {
					t.Fatalf("seed %d step %d: FreeCount = %d, want %d", seed, step, got, want)
				}
				sum := 0
				for _, n := range m.refs {
					sum += n
				}
				if got := h.LiveRefs(); got != sum {
					t.Fatalf("seed %d step %d: LiveRefs = %d, want %d", seed, step, got, sum)
				}
				units := 0
				for _, m := range ms {
					units += m.resident
				}
				if got, want := pool.Pages(), (units*unit+PageSize-1)/PageSize; got != want {
					t.Fatalf("chunk %d seed %d step %d: the pool holds %d pages for %d units, want %d", chunkSize, seed, step, got, units, want)
				}
			}
			for i, m := range ms {
				if m.peak < m.h.Chunks() {
					t.Fatalf("chunk %d seed %d: region %d peaked at %d/%d chunks: the sequence never exhausted it", chunkSize, seed, i, m.peak, m.h.Chunks())
				}
			}
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
