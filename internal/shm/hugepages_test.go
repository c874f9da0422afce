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

// Held checks a descriptor without panicking: only an aligned offset
// inside the region naming a chunk someone holds passes.
func TestHugePagesHeld(t *testing.T) {
	h, _ := NewHugePages(1, 8192)
	c, _ := h.Alloc()
	free, _ := h.Alloc()
	h.Free(free)
	for _, tc := range []struct {
		name string
		c    Chunk
		want bool
	}{
		{"held", c, true},
		{"misaligned", Chunk{Offset: c.Offset + 1}, false},
		{"past the region", Chunk{Offset: PageSize}, false},
		{"far past the region", Chunk{Offset: 1 << 63}, false},
		{"free", free, false},
		{"never handed out", Chunk{Offset: PageSize - 8192}, false},
	} {
		if got := h.Held(tc.c); got != tc.want {
			t.Errorf("%s chunk at %d: Held = %v, want %v", tc.name, tc.c.Offset, got, tc.want)
		}
	}
	h.Retain(c)
	h.Free(c)
	if !h.Held(c) {
		t.Error("a chunk with one reference left is not held")
	}
	h.Free(c)
	if h.Held(c) {
		t.Error("a freed chunk is still held")
	}
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

// AllocSized is Alloc whatever the size: one free list hands out every
// chunk, so a 64 B message recycles the chunk bulk traffic just freed.
func TestAllocSizedDispatch(t *testing.T) {
	h, _ := NewHugePages(1, 8192)
	a, _ := h.AllocSized(64)
	b, _ := h.AllocSized(8192)
	c, _ := h.Alloc()
	for i, ch := range []Chunk{a, b, c} {
		if want := uint64(i * 8192); ch.Offset != want {
			t.Fatalf("allocation %d at offset %d, want %d", i, ch.Offset, want)
		}
	}
	h.Free(b)
	if got, _ := h.AllocSized(1); got != b {
		t.Fatalf("AllocSized after freeing %d returned %d", b.Offset, got.Offset)
	}
	for _, ch := range []Chunk{a, b, c} {
		h.Free(ch)
	}
	if h.FreeCount() != h.Chunks() {
		t.Fatalf("FreeCount = %d after freeing all, want %d", h.FreeCount(), h.Chunks())
	}
}

// Bytes checks a descriptor's offset before it reaches a unit: an offset
// that is misaligned, would cross a page boundary or lies past the region
// panics and backs nothing. A valid chunk's window ends at its chunk, the
// last chunk of a page exactly on the boundary, and aliases region memory.
func TestHugePagesBytesBounds(t *testing.T) {
	h, _ := NewHugePages(2, PageSize/4) // 8 chunks, 4 per page
	for _, off := range []uint64{
		1,             // misaligned
		PageSize - 10, // misaligned, across the page boundary
		2 * PageSize,  // one chunk past the end
		1 << 63,       // far past the end
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bytes at offset %d did not panic", off)
				}
			}()
			h.Bytes(Chunk{Offset: off})
		}()
	}
	if n := h.Resident(); n != 0 {
		t.Fatalf("rejected offsets backed %d units", n)
	}
	last := Chunk{Offset: PageSize - uint64(h.ChunkSize())}
	b := h.Bytes(last)
	if len(b) != h.ChunkSize() || cap(b) != h.ChunkSize() {
		t.Fatalf("window of %d bytes, capacity %d, want both %d", len(b), cap(b), h.ChunkSize())
	}
	// A chunk larger than UnitSize is its own unit: the last chunk of
	// page 0 backs unit 3 alone, not its neighbours on the page.
	if h.UnitSize() != h.ChunkSize() || h.Resident() != 1 || h.region.units[3].Load() == nil {
		t.Fatalf("the last chunk of page 0 backed %d units of %d bytes, want its own unit of %d alone", h.Resident(), h.UnitSize(), h.ChunkSize())
	}
	b[0] = 7
	if h.Bytes(last)[0] != 7 {
		t.Fatal("windows do not alias region memory")
	}
}
