package shm

import (
	"bytes"
	"sync"
	"testing"
)

// Pages are backed on first touch (DESIGN.md §17): a region costs the
// pages its chunks have used, one whole page at a time, and nothing else.

func TestNewRegionHasNoResidentPages(t *testing.T) {
	h, err := NewHugePages(DefaultPageCount, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if h.Pages() != DefaultPageCount {
		t.Fatalf("Pages = %d, want %d", h.Pages(), DefaultPageCount)
	}
	if n := h.Resident(); n != 0 {
		t.Fatalf("a new region has %d resident pages, want 0", n)
	}
	// Allocating hands out an offset; it touches no memory.
	c, _ := h.Alloc()
	if n := h.Resident(); n != 0 {
		t.Fatalf("Alloc backed %d pages, want 0", n)
	}
	h.Free(c)
}

func TestFirstTouchBacksThatChunksPage(t *testing.T) {
	h, _ := NewHugePages(4, 8192)
	// Hand out the first two pages' chunks and one more, untouched: the
	// last chunk is the first on page 2, and allocation backs nothing.
	perPage := PageSize / h.ChunkSize()
	var c Chunk
	for i := 0; i <= 2*perPage; i++ {
		c, _ = h.Alloc()
	}
	page := int(c.Offset / PageSize)
	if page != 2 {
		t.Fatalf("chunk %d is on page %d, want 2", 2*perPage, page)
	}
	h.Write(c, []byte("first touch"))
	if n := h.Resident(); n != 1 {
		t.Fatalf("Resident = %d after one Write, want 1", n)
	}
	for i := range h.region.pages {
		if backed := h.region.pages[i].Load() != nil; backed != (i == page) {
			t.Errorf("page %d backed = %v", i, backed)
		}
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
	if a.Offset/PageSize != b.Offset/PageSize {
		t.Fatalf("chunks at %d and %d are on different pages", a.Offset, b.Offset)
	}
	h.Write(a, []byte("aaaa"))
	h.Write(b, []byte("bbbb"))
	if n := h.Resident(); n != 1 {
		t.Fatalf("Resident = %d with two chunks on one page, want 1", n)
	}
	// Both writes landed in the one backing page.
	page := h.region.window(int(a.Offset/PageSize)*PageSize, PageSize)
	for _, c := range []struct {
		off  uint64
		want string
	}{{a.Offset, "aaaa"}, {b.Offset, "bbbb"}} {
		rel := int(c.off % PageSize)
		if got := string(page[rel : rel+4]); got != c.want {
			t.Errorf("page bytes at %d = %q, want %q", c.off, got, c.want)
		}
	}
}

func TestLastPartialPageSizedToRegion(t *testing.T) {
	r := newRegion(PageSize + 100)
	if len(r.pages) != 2 {
		t.Fatalf("%d pages for a region of one page + 100 bytes, want 2", len(r.pages))
	}
	if b := r.window(PageSize+40, 60); len(b) != 60 {
		t.Fatalf("window at the region's end = %d bytes, want 60", len(b))
	}
	if n := len(*r.pages[1].Load()); n != 100 {
		t.Fatalf("last page backs %d bytes, want 100", n)
	}
	if r.resident() != 1 {
		t.Fatalf("resident = %d, want 1", r.resident())
	}
}

// TestFirstTouchConcurrentWriters races the first touch of one page from
// many goroutines, each writing and reading back its own chunk. Whichever
// goroutine backs the page, every write must land in the page every other
// goroutine sees: a lost race that kept its own page would read back
// another's bytes or zeros. Run under -race.
func TestFirstTouchConcurrentWriters(t *testing.T) {
	const workers = 16
	for round := 0; round < 50; round++ {
		h, _ := NewHugePages(1, PageSize/workers)
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
	}
}
