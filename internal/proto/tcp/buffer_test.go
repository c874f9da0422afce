package tcp

import (
	"bytes"
	"testing"
)

// The lazy byteRing (DESIGN.md §11): logical capacity is fixed at
// construction and governs Free/Write admission, while the physical
// array only materializes as bytes are buffered.

func newByteRing(capacity int) *byteRing {
	r := new(byteRing)
	r.reset(capacity)
	return r
}

func TestByteRingLazyAllocation(t *testing.T) {
	r := newByteRing(1 << 20)
	if len(r.buf) != 0 {
		t.Fatalf("fresh ring allocated %d bytes", len(r.buf))
	}
	if r.Cap() != 1<<20 || r.Free() != 1<<20 || r.Len() != 0 || !r.Empty() {
		t.Fatalf("fresh ring reports Cap=%d Free=%d Len=%d", r.Cap(), r.Free(), r.Len())
	}
	if n := r.Write([]byte("hello")); n != 5 {
		t.Fatalf("Write = %d", n)
	}
	if len(r.buf) == 0 || len(r.buf) > ringMinAlloc {
		t.Fatalf("5-byte write materialized %d bytes", len(r.buf))
	}
	if r.Free() != 1<<20-5 {
		t.Fatalf("Free = %d after 5-byte write", r.Free())
	}
	got := make([]byte, 5)
	if r.Read(got); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Read = %q", got)
	}
}

func TestByteRingGrowPreservesContents(t *testing.T) {
	r := newByteRing(1 << 16)
	// Force wraparound in the small physical array, then grow across it.
	first := bytes.Repeat([]byte("a"), ringMinAlloc-10)
	r.Write(first)
	r.Discard(ringMinAlloc - 100) // start is now deep in the array
	r.Write(bytes.Repeat([]byte("b"), 50))
	want := append(bytes.Repeat([]byte("a"), 90), bytes.Repeat([]byte("b"), 50)...)
	r.Write(bytes.Repeat([]byte("c"), 4*ringMinAlloc)) // forces grow + linearize
	want = append(want, bytes.Repeat([]byte("c"), 4*ringMinAlloc)...)
	got := make([]byte, len(want))
	if n := r.Peek(got, 0); n != len(want) {
		t.Fatalf("Peek = %d, want %d", n, len(want))
	}
	if !bytes.Equal(got, want) {
		t.Fatal("contents corrupted across grow")
	}
}

func TestByteRingAdmissionMatchesEagerRing(t *testing.T) {
	// The lazy ring must admit exactly what an eagerly-allocated ring
	// would: fill to capacity, spill rejected, drain, refill.
	r := newByteRing(100)
	if n := r.Write(bytes.Repeat([]byte("x"), 150)); n != 100 {
		t.Fatalf("overfill admitted %d, want 100", n)
	}
	if len(r.buf) != 100 {
		t.Fatalf("physical array %d, want clamped to capacity 100", len(r.buf))
	}
	if n := r.Write([]byte("y")); n != 0 {
		t.Fatalf("full ring admitted %d", n)
	}
	r.Discard(40)
	if n := r.Write(bytes.Repeat([]byte("z"), 60)); n != 40 {
		t.Fatalf("refill admitted %d, want 40", n)
	}
	if r.Len() != 100 || r.Free() != 0 {
		t.Fatalf("Len=%d Free=%d after refill", r.Len(), r.Free())
	}
}

func TestByteRingDiscardToEmptyResets(t *testing.T) {
	r := newByteRing(1 << 10)
	r.Write([]byte("abc"))
	if n := r.Discard(5); n != 3 {
		t.Fatalf("Discard = %d", n)
	}
	if r.start != 0 || r.n != 0 {
		t.Fatalf("drained ring start=%d n=%d", r.start, r.n)
	}
	// Discard on a never-written ring must not touch the nil array.
	fresh := newByteRing(8)
	if n := fresh.Discard(4); n != 0 {
		t.Fatalf("Discard on fresh ring = %d", n)
	}
}
