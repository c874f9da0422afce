package shm

import (
	"bytes"
	"sync"
	"testing"
)

// The small size class (DESIGN.md §11): NewHugePagesSized carves
// SmallPages×PageSize of small chunks above the bulk region, AllocSized
// dispatches short payloads there with bulk fallback, and the two
// classes share the refcount table and Free/Retain discipline.

func TestNewHugePagesSizedValidation(t *testing.T) {
	if _, err := NewHugePagesSized(1, 8192, 1, 3000); err == nil {
		t.Error("accepted small size not dividing the page")
	}
	if _, err := NewHugePagesSized(1, 8192, 1, 8192); err == nil {
		t.Error("accepted small size not smaller than the bulk size")
	}
	h, err := NewHugePagesSized(2, 8192, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	wantBulk, wantSmall := 2*PageSize/8192, PageSize/256
	if h.Chunks() != wantBulk+wantSmall {
		t.Fatalf("Chunks = %d, want %d+%d", h.Chunks(), wantBulk, wantSmall)
	}
	if h.SmallChunks() != wantSmall {
		t.Fatalf("SmallChunks = %d, want %d", h.SmallChunks(), wantSmall)
	}
	if h.SmallChunkSize() != 256 {
		t.Fatalf("SmallChunkSize = %d", h.SmallChunkSize())
	}
	// No small class: AllocSized falls back to bulk.
	h2, err := NewHugePagesSized(1, 8192, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.SmallChunks() != 0 || h2.SmallChunkSize() != 0 {
		t.Fatalf("classless region reports %d small chunks size %d", h2.SmallChunks(), h2.SmallChunkSize())
	}
	if c, ok := h2.AllocSized(64); !ok || h2.SizeOf(c) != 8192 {
		t.Fatal("AllocSized without a small class must hand out a bulk chunk")
	}
}

func TestAllocSizedDispatch(t *testing.T) {
	h, _ := NewHugePagesSized(1, 8192, 1, 256)
	smallBase := uint64(PageSize)

	small, ok := h.AllocSized(64)
	if !ok || small.Offset < smallBase {
		t.Fatalf("64B alloc landed at %d, want small class ≥ %d", small.Offset, smallBase)
	}
	if h.SizeOf(small) != 256 {
		t.Fatalf("SizeOf(small) = %d", h.SizeOf(small))
	}
	big, ok := h.AllocSized(257)
	if !ok || big.Offset >= smallBase {
		t.Fatalf("257B alloc landed at %d, want bulk class < %d", big.Offset, smallBase)
	}
	if h.SizeOf(big) != 8192 {
		t.Fatalf("SizeOf(big) = %d", h.SizeOf(big))
	}
	// Bulk chunks via Alloc never come from the small range, so big
	// transfers keep their pre-§11 offsets.
	bulk, _ := h.Alloc()
	if bulk.Offset >= smallBase {
		t.Fatalf("Alloc landed in the small range at %d", bulk.Offset)
	}
	h.Free(small)
	h.Free(big)
	h.Free(bulk)
}

func TestSmallClassExhaustionFallsBack(t *testing.T) {
	// Bulk chunks of half a page, small chunks of a quarter page: the
	// small class holds exactly 4 chunks.
	h, err := NewHugePagesSized(1, PageSize/2, 1, PageSize/4)
	if err != nil {
		t.Fatal(err)
	}
	var small []Chunk
	for i := 0; i < 4; i++ {
		c, ok := h.AllocSized(8)
		if !ok || h.SizeOf(c) != PageSize/4 {
			t.Fatalf("small alloc %d: ok=%v size=%d", i, ok, h.SizeOf(c))
		}
		small = append(small, c)
	}
	// Small class dry: a short payload must fall back to a bulk chunk
	// rather than fail.
	c, ok := h.AllocSized(8)
	if !ok {
		t.Fatal("AllocSized failed with bulk chunks free")
	}
	if h.SizeOf(c) != PageSize/2 {
		t.Fatalf("fallback chunk size %d, want bulk", h.SizeOf(c))
	}
	for _, ch := range append(small, c) {
		h.Free(ch)
	}
	if h.FreeCount() != h.Chunks() {
		t.Fatalf("FreeCount = %d after freeing all, want %d", h.FreeCount(), h.Chunks())
	}
}

func TestSmallChunkWriteReadBounds(t *testing.T) {
	h, _ := NewHugePagesSized(1, 8192, 1, 256)
	c, _ := h.AllocSized(64)
	msg := bytes.Repeat([]byte("x"), 300)
	if n := h.Write(c, msg); n != 256 {
		t.Fatalf("Write into a small chunk = %d, want clamped 256", n)
	}
	if n := h.Read(c, make([]byte, 300), 300); n != 256 {
		t.Fatalf("Read from a small chunk = %d, want clamped 256", n)
	}
	if len(h.Bytes(c)) != 256 {
		t.Fatalf("Bytes window = %d, want 256", len(h.Bytes(c)))
	}
	h.Free(c)
}

func TestSmallChunkRefcounts(t *testing.T) {
	h, _ := NewHugePagesSized(1, 8192, 1, 256)
	c, _ := h.AllocSized(8)
	h.Retain(c)
	if n := h.RefCount(c); n != 2 {
		t.Fatalf("RefCount = %d after retain", n)
	}
	h.Free(c)
	if h.LiveRefs() != 1 {
		t.Fatalf("LiveRefs = %d with one ref standing", h.LiveRefs())
	}
	h.Free(c)
	if h.LiveRefs() != 0 {
		t.Fatalf("LiveRefs = %d after final free", h.LiveRefs())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double free of a small chunk did not panic")
		}
	}()
	h.Free(c)
}

// TestSmallClassConcurrentAllocFree hammers the small class from many
// goroutines (the -race tier's view of the class's one free list).
func TestSmallClassConcurrentAllocFree(t *testing.T) {
	h, _ := NewHugePagesSized(2, 8192, 2, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				c, ok := h.AllocSized(16)
				if !ok {
					continue
				}
				h.Write(c, []byte{byte(g)})
				h.Free(c)
			}
		}(g)
	}
	wg.Wait()
	if h.FreeCount() != h.Chunks() {
		t.Fatalf("FreeCount = %d after quiesce, want %d", h.FreeCount(), h.Chunks())
	}
	if h.LiveRefs() != 0 {
		t.Fatalf("LiveRefs = %d after quiesce", h.LiveRefs())
	}
}
