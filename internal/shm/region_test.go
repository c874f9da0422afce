package shm

import (
	"bytes"
	"sync"
	"testing"
)

// Units are backed on first touch (DESIGN.md §17): a region costs the
// units its chunks have used, carved from its pool's pages, and nothing
// else.

func TestNewRegionHasNoResidentPages(t *testing.T) {
	pool := NewPool()
	h, err := NewHugePagesIn(pool, DefaultPageCount, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if h.Pages() != DefaultPageCount || h.Units() != DefaultPageCount*PageSize/UnitSize {
		t.Fatalf("Pages = %d, Units = %d, want %d and %d", h.Pages(), h.Units(), DefaultPageCount, DefaultPageCount*PageSize/UnitSize)
	}
	if n := h.Resident(); n != 0 {
		t.Fatalf("a new region has %d resident units, want 0", n)
	}
	// Allocating hands out an offset; it touches no memory.
	c, _ := h.Alloc()
	if n := h.Resident(); n != 0 {
		t.Fatalf("Alloc backed %d units, want 0", n)
	}
	if n := pool.Pages(); n != 0 {
		t.Fatalf("Alloc took %d pages of the pool, want 0", n)
	}
	h.Free(c)
}

func TestFirstTouchBacksThatChunksPage(t *testing.T) {
	pool := NewPool()
	h, _ := NewHugePagesIn(pool, 4, 8192)
	// Hand out the first two units' chunks and one more, untouched: the
	// last chunk is the first on unit 2, and allocation backs nothing.
	perUnit := h.UnitSize() / h.ChunkSize()
	var c Chunk
	for i := 0; i <= 2*perUnit; i++ {
		c, _ = h.Alloc()
	}
	unit := int(c.Offset) / h.UnitSize()
	if unit != 2 {
		t.Fatalf("chunk %d is on unit %d, want 2", 2*perUnit, unit)
	}
	h.Write(c, []byte("first touch"))
	if n := h.Resident(); n != 1 {
		t.Fatalf("Resident = %d after one Write, want 1", n)
	}
	for i := range h.region.units {
		if backed := h.region.units[i].Load() != nil; backed != (i == unit) {
			t.Errorf("unit %d backed = %v", i, backed)
		}
	}
	if n := pool.Pages(); n != 1 {
		t.Fatalf("one unit took %d pages of the pool, want 1", n)
	}
	buf := make([]byte, 11)
	if h.Read(c, buf, len(buf)); string(buf) != "first touch" {
		t.Fatalf("read back %q", buf)
	}
}

func TestChunksOnOnePageShareItsBacking(t *testing.T) {
	h, _ := NewHugePages(2, 8192)
	a, _ := h.Alloc()
	b, _ := h.Alloc()
	if a.Offset/UnitSize != b.Offset/UnitSize {
		t.Fatalf("chunks at %d and %d are on different units", a.Offset, b.Offset)
	}
	h.Write(a, []byte("aaaa"))
	h.Write(b, []byte("bbbb"))
	if n := h.Resident(); n != 1 {
		t.Fatalf("Resident = %d with two chunks on one unit, want 1", n)
	}
	// Both writes landed in the one backing unit.
	unit := h.region.window(int(a.Offset/UnitSize)*UnitSize, UnitSize)
	for _, c := range []struct {
		off  uint64
		want string
	}{{a.Offset, "aaaa"}, {b.Offset, "bbbb"}} {
		rel := int(c.off % UnitSize)
		if got := string(unit[rel : rel+4]); got != c.want {
			t.Errorf("unit bytes at %d = %q, want %q", c.off, got, c.want)
		}
	}
}

// A region whose size is not a whole number of units rounds its unit
// count up. Its last unit is carved whole from the pool, so the pool's
// pages hold whole units only, and a window at the region's end still
// ends where it was asked to.
func TestLastPartialPageSizedToRegion(t *testing.T) {
	pool := NewPool()
	r := newRegion(pool, UnitSize+100, UnitSize)
	if len(r.units) != 2 {
		t.Fatalf("%d units for a region of one unit + 100 bytes, want 2", len(r.units))
	}
	if b := r.window(UnitSize+40, 60); len(b) != 60 || cap(b) != 60 {
		t.Fatalf("window at the region's end = %d bytes, capacity %d, want 60 and 60", len(b), cap(b))
	}
	if n := len(*r.units[1].Load()); n != UnitSize {
		t.Fatalf("last unit backs %d bytes, want a whole unit of %d", n, UnitSize)
	}
	if r.resident() != 1 || pool.Pages() != 1 {
		t.Fatalf("resident = %d units over %d pages, want 1 over 1", r.resident(), pool.Pages())
	}
}

// TestFirstTouchConcurrentWriters races the first touch of one unit from
// many goroutines, each writing and reading back its own chunk. Whichever
// goroutine backs the unit, every write must land in the unit every other
// goroutine sees: a lost race that kept its own unit would read back
// another's bytes or zeros. Run under -race.
func TestFirstTouchConcurrentWriters(t *testing.T) {
	const workers = 16
	for round := 0; round < 50; round++ {
		pool := NewPool()
		h, _ := NewHugePagesIn(pool, 1, UnitSize/workers)
		chunks := make([]Chunk, workers)
		for g := range chunks {
			c, ok := h.Alloc()
			if !ok {
				t.Fatal("alloc failed")
			}
			chunks[g] = c
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range chunks {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				want := bytes.Repeat([]byte{byte(g + 1)}, h.ChunkSize())
				<-start
				h.Write(chunks[g], want)
				got := make([]byte, len(want))
				h.Read(chunks[g], got, len(got))
				if !bytes.Equal(got, want) {
					t.Errorf("round %d: chunk %d did not read back its own bytes", round, g)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		if n := h.Resident(); n != 1 {
			t.Fatalf("round %d: Resident = %d, want 1", round, n)
		}
		if n := pool.Pages(); n != 1 {
			t.Fatalf("round %d: the pool allocated %d pages for one unit, want 1", round, n)
		}
	}
}

// TestFirstTouchConcurrentWritersSharedPool races first touches from two
// regions on one pool: each region's goroutines write and read back
// their own chunks across several units at once, so the two regions'
// units are carved from the shared page in whatever order the races
// fall. No write may land anywhere another goroutine reads, and the pool
// must hand out exactly the units touched, on as few pages as hold them.
// Run under -race.
func TestFirstTouchConcurrentWritersSharedPool(t *testing.T) {
	const (
		regions = 2
		units   = 3 // per region
		chunk   = UnitSize / 4
	)
	for round := 0; round < 50; round++ {
		pool := NewPool()
		var hs [regions]*HugePages
		var chunks [regions][]Chunk
		for r := range hs {
			hs[r], _ = NewHugePagesIn(pool, 1, chunk)
			for i := 0; i < units*UnitSize/chunk; i++ {
				c, ok := hs[r].Alloc()
				if !ok {
					t.Fatal("alloc failed")
				}
				chunks[r] = append(chunks[r], c)
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := range hs {
			for i, c := range chunks[r] {
				wg.Add(1)
				go func(h *HugePages, c Chunk, tag byte) {
					defer wg.Done()
					want := bytes.Repeat([]byte{tag}, chunk)
					<-start
					h.Write(c, want)
					got := make([]byte, chunk)
					h.Read(c, got, chunk)
					if !bytes.Equal(got, want) {
						t.Errorf("round %d: region %d chunk at %d did not read back its own bytes", round, tag>>6, c.Offset)
					}
				}(hs[r], c, byte(r<<6|i+1))
			}
		}
		close(start)
		wg.Wait()
		for r, h := range hs {
			if n := h.Resident(); n != units {
				t.Fatalf("round %d: region %d has %d resident units, want %d", round, r, n, units)
			}
		}
		if n := pool.Pages(); n != 1 {
			t.Fatalf("round %d: the pool allocated %d pages for %d units, want 1", round, n, regions*units)
		}
	}
}

// Regions on one pool share its pages, never a unit. Two regions take
// their units in interleaved first touches, so each one's units sit
// between the other's on the shared pages; filling every chunk of one
// must leave every chunk of the other untouched. Each window's capacity
// is its chunk's size, so appending to it copies rather than spilling
// into whatever unit follows on the page. Units of one chunk larger than
// UnitSize are checked the same way.
func TestSharedPoolIsolation(t *testing.T) {
	for _, chunk := range []int{8192, PageSize / 4} {
		pool := NewPool()
		a, _ := NewHugePagesIn(pool, 2, chunk)
		b, _ := NewHugePagesIn(pool, 2, chunk)
		var ca, cb []Chunk
		for i := 0; i < a.Chunks(); i++ {
			x, _ := a.Alloc()
			y, _ := b.Alloc()
			ca, cb = append(ca, x), append(cb, y)
			for _, w := range [][]byte{a.Bytes(x), b.Bytes(y)} {
				if len(w) != chunk || cap(w) != chunk {
					t.Fatalf("chunk %d: window of %d bytes, capacity %d, want both %d", chunk, len(w), cap(w), chunk)
				}
			}
		}
		pattern := bytes.Repeat([]byte{0xa5}, chunk)
		for _, c := range ca {
			a.Write(c, pattern)
			_ = append(a.Bytes(c), 0xa5)
		}
		zero := make([]byte, chunk)
		for _, c := range cb {
			if !bytes.Equal(b.Bytes(c), zero) {
				t.Fatalf("chunk %d: region A's pattern reached region B at offset %d", chunk, c.Offset)
			}
		}
		for _, c := range ca {
			if !bytes.Equal(a.Bytes(c), pattern) {
				t.Fatalf("chunk %d: region A lost its own bytes at offset %d", chunk, c.Offset)
			}
		}
		if units, want := a.Resident()+b.Resident(), 2*a.Units(); units != want {
			t.Fatalf("chunk %d: %d resident units, want %d", chunk, units, want)
		}
		if got, want := pool.Pages(), 4; got != want {
			t.Fatalf("chunk %d: the pool holds %d pages for two 2-page regions, want %d", chunk, got, want)
		}
	}
}

// Every region on a pool carves units of one size, so each page holds
// whole units and no tail is left over. The first region fixes the
// size; a region of another is refused and takes nothing from the pool,
// while one whose smaller chunks share the UnitSize unit is accepted.
func TestPoolRefusesASecondUnitSize(t *testing.T) {
	for _, tc := range []struct{ first, other, same int }{
		{8192, 2 * UnitSize, UnitSize},     // UnitSize units refuse 128 KiB ones
		{PageSize / 4, 8192, PageSize / 4}, // 512 KiB units refuse UnitSize ones
	} {
		pool := NewPool()
		first, err := NewHugePagesIn(pool, 2, tc.first)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewHugePagesIn(pool, 2, tc.other); err == nil {
			t.Errorf("a pool carving %d-byte units accepted a region of %d-byte units", first.UnitSize(), max(tc.other, UnitSize))
		}
		same, err := NewHugePagesIn(pool, 2, tc.same)
		if err != nil {
			t.Fatalf("a pool carving %d-byte units refused a region of chunk %d: %v", first.UnitSize(), tc.same, err)
		}
		for _, h := range []*HugePages{first, same} {
			c, _ := h.Alloc()
			h.Write(c, []byte{1})
		}
		if n := pool.Pages(); n != 1 {
			t.Errorf("two units of %d bytes took %d pages, want 1", first.UnitSize(), n)
		}
	}
}
