package shm

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestNewHugePagesValidation(t *testing.T) {
	if _, err := NewHugePages(0, 8192); err == nil {
		t.Error("accepted zero pages")
	}
	if _, err := NewHugePages(1, 0); err == nil {
		t.Error("accepted zero chunk size")
	}
	if _, err := NewHugePages(1, 3000); err == nil {
		t.Error("accepted chunk size not dividing the page")
	}
	h, err := NewHugePages(2, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if h.Chunks() != 2*PageSize/8192 {
		t.Fatalf("Chunks = %d", h.Chunks())
	}
	if h.FreeCount() != h.Chunks() {
		t.Fatalf("fresh allocator FreeCount = %d, want %d", h.FreeCount(), h.Chunks())
	}
}

func TestHugePagesAllocFreeCycle(t *testing.T) {
	h, _ := NewHugePages(1, PageSize/4) // 4 chunks
	var chunks []Chunk
	for i := 0; i < 4; i++ {
		c, ok := h.Alloc()
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		chunks = append(chunks, c)
	}
	if _, ok := h.Alloc(); ok {
		t.Fatal("alloc succeeded on exhausted region")
	}
	// All offsets distinct and chunk-aligned.
	seen := map[uint64]bool{}
	for _, c := range chunks {
		if seen[c.Offset] {
			t.Fatalf("duplicate chunk offset %d", c.Offset)
		}
		if c.Offset%uint64(h.ChunkSize()) != 0 {
			t.Fatalf("misaligned offset %d", c.Offset)
		}
		seen[c.Offset] = true
	}
	for _, c := range chunks {
		h.Free(c)
	}
	if h.FreeCount() != 4 {
		t.Fatalf("FreeCount = %d after freeing all", h.FreeCount())
	}
}

func TestHugePagesWriteRead(t *testing.T) {
	h, _ := NewHugePages(1, 8192)
	c, _ := h.Alloc()
	msg := bytes.Repeat([]byte("netkernel"), 100)
	n := h.Write(c, msg)
	if n != len(msg) {
		t.Fatalf("Write = %d, want %d", n, len(msg))
	}
	buf := make([]byte, len(msg))
	if got := h.Read(c, buf, len(msg)); got != len(msg) {
		t.Fatalf("Read = %d", got)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatal("round trip corrupted data")
	}
}

func TestHugePagesWriteTruncatesAtChunk(t *testing.T) {
	h, _ := NewHugePages(1, 8192)
	c, _ := h.Alloc()
	big := make([]byte, 10000)
	if n := h.Write(c, big); n != 8192 {
		t.Fatalf("Write of oversize data = %d, want 8192", n)
	}
	if n := h.Read(c, make([]byte, 10000), 10000); n != 8192 {
		t.Fatalf("Read clamped = %d, want 8192", n)
	}
}

func TestHugePagesDoubleFreePanics(t *testing.T) {
	h, _ := NewHugePages(1, 8192)
	c, _ := h.Alloc()
	h.Free(c)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	h.Free(c)
}

func TestHugePagesBadOffsetPanics(t *testing.T) {
	h, _ := NewHugePages(1, 8192)
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned free did not panic")
		}
	}()
	h.Free(Chunk{Offset: 1})
}

// Property: chunks allocated between frees are always distinct, and
// alloc+free conserves the free count.
func TestHugePagesQuickConservation(t *testing.T) {
	h, _ := NewHugePages(1, PageSize/16) // 16 chunks
	err := quick.Check(func(ops []bool) bool {
		live := map[uint64]Chunk{}
		for _, alloc := range ops {
			if alloc {
				if c, ok := h.Alloc(); ok {
					if _, dup := live[c.Offset]; dup {
						return false
					}
					live[c.Offset] = c
				} else if len(live) != 16 {
					return false
				}
			} else {
				for off, c := range live {
					h.Free(c)
					delete(live, off)
					break
				}
			}
			if h.FreeCount()+len(live) != 16 {
				return false
			}
		}
		for _, c := range live {
			h.Free(c)
		}
		return h.FreeCount() == 16
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHugePagesIsolation(t *testing.T) {
	// Each VM↔NSM pair gets its own region (§3.1); writes through one
	// allocator must not be visible through another.
	a, _ := NewHugePages(1, 8192)
	b, _ := NewHugePages(1, 8192)
	ca, _ := a.Alloc()
	cb, _ := b.Alloc()
	a.Write(ca, []byte("tenant-a-secret"))
	buf := make([]byte, 15)
	b.Read(cb, buf, 15)
	if bytes.Contains(buf, []byte("secret")) {
		t.Fatal("data leaked across regions")
	}
}

func TestRegionSliceBounds(t *testing.T) {
	r := NewRegion(2 * PageSize)
	for _, s := range []struct{ off, n int }{
		{-1, 5},               // negative offset
		{0, -1},               // negative length
		{2*PageSize - 10, 20}, // past the end
		{PageSize - 10, 20},   // across the page boundary
		{0, PageSize + 1},     // longer than a page
	} {
		if _, err := r.Slice(s.off, s.n); err == nil {
			t.Errorf("Slice(%d, %d) accepted", s.off, s.n)
		}
	}
	if b, err := r.Slice(2*PageSize, 0); err != nil || len(b) != 0 {
		t.Errorf("empty Slice at the end = %d bytes, err %v", len(b), err)
	}
	if n := r.Resident(); n != 0 {
		t.Fatalf("rejected and empty slices backed %d pages", n)
	}
	// A window that ends exactly on the boundary is within one page.
	if _, err := r.Slice(PageSize-10, 10); err != nil {
		t.Fatalf("Slice ending on the page boundary: %v", err)
	}
	b, err := r.Slice(10, 20)
	if err != nil || len(b) != 20 {
		t.Fatalf("Slice = %d bytes, err %v", len(b), err)
	}
	b[0] = 7
	b2, _ := r.Slice(10, 1)
	if b2[0] != 7 {
		t.Fatal("slices do not alias region memory")
	}
}
