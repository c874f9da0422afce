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
// one pool. Every Alloc must hand out the chunk the model's LIFO of freed
// chunks names, or the lowest never handed out. After every step each
// region's resident units must be exactly the units its peak outstanding
// chunks span — ⌈peak × chunk size / unit size⌉, every handed-out chunk
// being touched — its count blocks exactly one per page those chunks
// reach, the pool's pages exactly those the regions' units fill, with no
// slack page, and every chunk's RefCount and Held, FreeCount and LiveRefs
// must all agree with the model. It runs once with chunks of their own
// unit and once with two chunks to a UnitSize unit.
func TestHugePagesPeakOracle(t *testing.T) {
	const (
		regions = 3
		steps   = 6000
	)
	type model struct {
		h         *HugePages
		refs      map[uint64]int // live chunk offset → model refcount
		live      []Chunk        // the keys of refs, for random picks
		freed     []uint64       // freed chunks' offsets, most recent last
		out, peak int            // outstanding and peak chunks: the peak is the chunks ever handed out
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
					want := uint64(m.peak * chunkSize) // the lowest chunk never handed out
					if n := len(m.freed); n > 0 {
						want, m.freed = m.freed[n-1], m.freed[:n-1]
					}
					if c.Offset != want {
						t.Fatalf("chunk %d seed %d step %d: alloc at offset %d, want %d", chunkSize, seed, step, c.Offset, want)
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
						m.freed = append(m.freed, c.Offset)
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
				made, perPage := 0, PageSize/chunkSize
				for _, b := range h.blocks {
					if b != nil {
						made++
					}
				}
				if want := (m.peak + perPage - 1) / perPage; made != want {
					t.Fatalf("chunk %d seed %d step %d: %d count blocks for %d chunks ever handed out, want %d", chunkSize, seed, step, made, m.peak, want)
				}
				for off := uint64(0); off < uint64(h.Chunks()*chunkSize); off += uint64(chunkSize) {
					c, want := Chunk{Offset: off}, m.refs[off]
					if got := h.RefCount(c); got != want {
						t.Fatalf("chunk %d seed %d step %d: RefCount at %d = %d, want %d", chunkSize, seed, step, off, got, want)
					}
					if got := h.Held(c); got != (want > 0) {
						t.Fatalf("chunk %d seed %d step %d: Held at %d = %v with %d references", chunkSize, seed, step, off, got, want)
					}
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
// occasional Retain/Free pairs riding along, and a checker reading Held,
// RefCount and LiveRefs of every chunk meanwhile, as the cursor makes the
// second page's count block: a free chunk's freed-list link must never
// show through as a count. Run under -race; the assertions check
// conservation, not timing.
func TestHugePagesConcurrentAllocFree(t *testing.T) {
	h, _ := NewHugePages(2, 8192) // 512 chunks, 256 a page
	const (
		workers = 8
		rounds  = 2000
	)
	// Hold most of page 0, so the workers' allocations make page 1's
	// block while the checker reads.
	pinned := make([]Chunk, 250)
	for i := range pinned {
		pinned[i], _ = h.Alloc()
	}
	stop, checked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(checked)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for off := uint64(0); off < 2*PageSize; off += 8192 {
				c := Chunk{Offset: off}
				h.Held(c)
				if n := h.RefCount(c); n < 0 {
					t.Errorf("RefCount at %d = %d", off, n)
					return
				}
			}
			if n := h.LiveRefs(); n < 0 {
				t.Errorf("LiveRefs = %d", n)
				return
			}
		}
	}()
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
	close(stop)
	<-checked
	if n := h.made(); n != 2 {
		t.Fatalf("%d count blocks after the workers' allocations, want 2", n)
	}
	for _, c := range pinned {
		h.Free(c)
	}
	if h.FreeCount() != h.Chunks() {
		t.Fatalf("FreeCount = %d after quiescence, want %d", h.FreeCount(), h.Chunks())
	}
	if h.LiveRefs() != 0 {
		t.Fatalf("LiveRefs = %d after quiescence, want 0", h.LiveRefs())
	}
}

// Retain and Free of a chunk nobody holds panic and change nothing:
// neither a chunk on a page whose count block was never made, nor one
// past the cursor on a page whose block was, nor a freed chunk, whose
// count is a link of the freed list. Afterwards the allocator hands out
// the chunks the untouched state names: the freed chunk (LIFO), then the
// cursor's next.
func TestHugePagesFreeOfUnreachedChunkPanics(t *testing.T) {
	h, _ := NewHugePages(3, 8192) // 256 chunks a page
	a, _ := h.Alloc()
	b, _ := h.Alloc()
	c, _ := h.Alloc()
	h.Free(b)
	h.Free(a) // the freed list is a, then b
	type state struct {
		made, free, live int
		link             int32 // a's count: the freed list's link to b
	}
	snap := func() state {
		return state{h.made(), h.FreeCount(), h.LiveRefs(), h.blocks[0][0].Load()}
	}
	before := snap()
	if before.made != 1 || before.free != h.Chunks()-1 || before.live != 1 || before.link != -int32(b.Offset/8192)-2 {
		t.Fatalf("after three allocs and two frees: %+v", before)
	}
	for _, tc := range []struct {
		name string
		c    Chunk
	}{
		{"on a page never reached", Chunk{Offset: 2*PageSize + 5*8192}},
		{"past the cursor on a reached page", Chunk{Offset: 9 * 8192}},
		{"freed", a},
		{"freed, deeper in the list", b},
	} {
		for op, f := range map[string]func(Chunk){"Free": h.Free, "Retain": h.Retain} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s of a chunk %s did not panic", op, tc.name)
					}
				}()
				f(tc.c)
			}()
			if after := snap(); after != before {
				t.Errorf("%s of a chunk %s changed the state from %+v to %+v", op, tc.name, before, after)
			}
			if h.RefCount(tc.c) != 0 || h.Held(tc.c) {
				t.Errorf("%s of a chunk %s left it with %d references, held %v", op, tc.name, h.RefCount(tc.c), h.Held(tc.c))
			}
		}
	}
	for i, want := range []Chunk{a, b, {Offset: c.Offset + 8192}} {
		if got, _ := h.Alloc(); got != want {
			t.Fatalf("alloc %d after the refused calls at offset %d, want %d", i, got.Offset, want.Offset)
		}
	}
}

// A warm allocator's Alloc/Retain/Free cycle allocates nothing: the
// freed list lives in the counts. The only allocation is the count block
// made when the cursor first enters a page's chunks.
func TestAllocsHugePagesCycle(t *testing.T) {
	const perPage = 4
	h, _ := NewHugePages(16, PageSize/perPage)
	var held [perPage]Chunk
	cycle := func() {
		for i := range held {
			held[i], _ = h.Alloc()
			h.Retain(held[i])
		}
		for _, c := range held {
			h.Free(c)
			h.Free(c)
		}
	}
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Fatalf("%.1f allocations per warm cycle of %d chunks, want 0", avg, perPage)
	}
	// The warm-up run takes back the four freed chunks of page 0; every
	// run after it takes one page's chunks from the cursor, whose first
	// Alloc makes the page's block.
	fill := func() {
		for range perPage {
			if _, ok := h.Alloc(); !ok {
				t.Fatal("alloc failed")
			}
		}
	}
	if avg := testing.AllocsPerRun(5, fill); avg != 1 {
		t.Fatalf("%.1f allocations per page's chunks handed out, want the 1 block", avg)
	}
	if made := h.made(); made != 6 {
		t.Fatalf("%d count blocks after six pages' chunks, want 6", made)
	}
}
