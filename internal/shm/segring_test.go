package shm

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"
)

// segments counts the segments r holds: those from the consumer's to
// the producer's, its origin excepted. Only a quiescent ring may be
// walked. A chain longer than any ring can hold reads as that length.
func (r *Ring) segments() int {
	n := 0
	for s := r.hseg; s != nil && n <= 1<<16; s = s.next.Load() {
		if s != &r.origin {
			n++
		}
		if s == r.tseg {
			return n
		}
	}
	return 1 << 16
}

// flatRing is the reference the segmented ring is checked against: one
// buffer of the ring's whole depth, as the ring was before segments,
// whose spans end where the ring's segments end.
type flatRing struct {
	slot, depth, seg int
	buf              []byte
	head, tail       int
}

func newFlatRing(depth, slot int) *flatRing {
	return &flatRing{slot: slot, depth: depth, seg: min(depth, SegmentSlots), buf: make([]byte, depth*slot)}
}

// span returns the slots [pos, pos+n) truncated at a segment end.
func (f *flatRing) span(pos, n int) []byte {
	idx := pos % f.depth
	n = min(n, f.seg-idx%f.seg)
	return f.buf[idx*f.slot : (idx+n)*f.slot]
}

func (f *flatRing) reserve(max int) []byte {
	return f.span(f.tail, min(max, f.depth-(f.tail-f.head)))
}

func (f *flatRing) front(max int) []byte {
	return f.span(f.head, min(max, f.tail-f.head))
}

// Seeded random ReserveN/CommitN/FrontN/ReleaseN runs, partial commits
// and releases included, on rings of every shape sharing one reserve,
// interleaved: after every step each ring's spans, bytes and counts
// match a flat ring's, each ring holds at most ⌈Len/16⌉+1 segments, and
// the reserve's held segments are exactly the ones the rings hold. A
// segment given back before the ring is done with it goes to another
// ring, which overwrites it.
func TestRingMatchesFlatOracle(t *testing.T) {
	const slot = 16
	depths := []int{1, 2, 8, 16, 256, 1024}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5e9))
		res, err := NewSlotReserve(4*SegmentSlots, slot) // small slabs, so the reserve grows
		if err != nil {
			t.Fatal(err)
		}
		rings := make([]*Ring, len(depths))
		flats := make([]*flatRing, len(depths))
		for i, d := range depths {
			if rings[i], err = NewRingIn(res, d, slot); err != nil {
				t.Fatal(err)
			}
			flats[i] = newFlatRing(d, slot)
		}
		if res.Held() != 0 {
			t.Fatalf("seed %d: rings never pushed to hold %d segments", seed, res.Held())
		}
		// Each ring leans to filling or draining for a while, so the deep
		// rings reach both empty and full.
		lean := make([]int, len(depths))
		for step := 0; step < 20000; step++ {
			i := rng.IntN(len(rings))
			r, f := rings[i], flats[i]
			if step%500 == 0 {
				lean[i] = 20 + rng.IntN(61)
			}
			max := 1 + rng.IntN(min(f.depth, 3*SegmentSlots))
			if rng.IntN(100) < lean[i] {
				span, n := r.ReserveN(max)
				want := f.reserve(max)
				if n != len(want)/slot || len(span) != len(want) {
					t.Fatalf("seed %d step %d ring %d: ReserveN(%d) = %d slots, %d bytes; flat ring gives %d slots",
						seed, step, f.depth, max, n, len(span), len(want)/slot)
				}
				for j := range span {
					span[j] = byte(rng.Uint32())
				}
				copy(want, span)
				c := rng.IntN(n + 1)
				r.CommitN(c)
				f.tail += c
			} else {
				span, n := r.FrontN(max)
				want := f.front(max)
				if n != len(want)/slot || !bytes.Equal(span, want) {
					t.Fatalf("seed %d step %d ring %d: FrontN(%d) = %d slots %x; flat ring gives %d slots %x",
						seed, step, f.depth, max, n, span, len(want)/slot, want)
				}
				c := rng.IntN(n + 1)
				r.ReleaseN(c)
				f.head += c
			}
			held := 0
			for j, r := range rings {
				f := flats[j]
				l := f.tail - f.head
				if r.Len() != l || r.Empty() != (l == 0) || r.Full() != (l == f.depth) || r.Cap() != f.depth {
					t.Fatalf("seed %d step %d ring %d: Len/Empty/Full/Cap = %d/%v/%v/%d, flat ring %d/%v/%v/%d",
						seed, step, f.depth, r.Len(), r.Empty(), r.Full(), r.Cap(), l, l == 0, l == f.depth, f.depth)
				}
				n := r.segments()
				if bound := (l+SegmentSlots-1)/SegmentSlots + 1; n > bound {
					t.Fatalf("seed %d step %d ring %d: %d segments held at occupancy %d, want ≤ %d",
						seed, step, f.depth, n, l, bound)
				}
				held += n
			}
			if res.Held() != held || res.Held()+res.Free() != res.Slabs()*res.SlabSegments() {
				t.Fatalf("seed %d step %d: reserve has %d held + %d free of %d slabs × %d; the rings hold %d",
					seed, step, res.Held(), res.Free(), res.Slabs(), res.SlabSegments(), held)
			}
		}
	}
}

// Rings that are never pushed to hold no segment; a ring's slot size
// must be its reserve's.
func TestNewRingInValidation(t *testing.T) {
	res, err := NewSlotReserve(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRingIn(res, 16, 16); err == nil {
		t.Error("NewRingIn accepted 16-byte slots from an 8-byte reserve")
	}
	for _, slots := range []int{0, 8, 24} {
		if _, err := NewSlotReserve(slots, 8); err == nil {
			t.Errorf("NewSlotReserve accepted a %d-slot slab", slots)
		}
	}
	r, err := NewRingIn(res, 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cap() != 1024 || res.Held() != 0 || res.Bytes() != 64*8 {
		t.Fatalf("a fresh 1 024-slot ring: Cap %d, %d segments held, %d reserve bytes; want 1 024, 0, 512",
			r.Cap(), res.Held(), res.Bytes())
	}
}

// Several rings share one reserve, each with its own producer and
// consumer goroutine, moving spans of odd lengths that cross segment
// boundaries; the slab is smaller than the rings' combined depth, so
// the reserve grows while they run. Every value arrives once, in order.
// Run with -race to check the segment hand-off.
func TestReserveSharedByConcurrentRings(t *testing.T) {
	const (
		rings = 4
		n     = 20000
	)
	res, err := NewSlotReserve(2*SegmentSlots, 8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, rings)
	for k := 0; k < rings; k++ {
		r, err := NewRingIn(res, 64, 8)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < n; {
				span, got := r.ReserveN(int(7 + 2*(i%5))) // 7, 9, … 15 slots
				if got == 0 {
					runtime.Gosched()
					continue
				}
				fill := min(got, int(n-i))
				for s := 0; s < fill; s++ {
					binary.LittleEndian.PutUint64(span[s*8:], i)
					i++
				}
				r.CommitN(fill)
			}
		}()
		go func() {
			defer wg.Done()
			for i := uint64(0); i < n; {
				span, got := r.FrontN(int(5 + 2*(i%7))) // 5, 7, … 17 slots
				if got == 0 {
					runtime.Gosched()
					continue
				}
				for s := 0; s < got; s++ {
					if v := binary.LittleEndian.Uint64(span[s*8:]); v != i {
						errc <- errValue{i, v}
						return
					}
					i++
				}
				r.ReleaseN(got)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("rings sharing a reserve timed out")
	}
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if res.Held()+res.Free() != res.Slabs()*res.SlabSegments() || res.Held() > rings {
		t.Fatalf("drained rings hold %d segments, %d free, of %d slabs × %d",
			res.Held(), res.Free(), res.Slabs(), res.SlabSegments())
	}
}

// A warmed ring cycling ten times its depth at an occupancy of one to
// four takes and gives segments from its reserve's first slab, and
// allocates nothing.
func TestAllocsRingCycleAtLowOccupancy(t *testing.T) {
	res, err := NewSlotReserve(1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRingIn(res, 1024, 64)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		for pushed := 0; pushed < 10*r.Cap(); {
			_, n := r.ReserveN(4 - r.Len()) // fill to 4
			r.CommitN(n)
			pushed += n
			_, n = r.FrontN(1 + pushed%4) // drain 1 to 4, sometimes to empty
			r.ReleaseN(n)
		}
		for !r.Empty() {
			_, n := r.FrontN(4)
			r.ReleaseN(n)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
		t.Fatalf("%.1f allocations per %d slots cycled, want 0", avg, 10*r.Cap())
	}
	if res.Slabs() != 1 || res.Held() > 1 {
		t.Fatalf("reserve grew to %d slabs; the drained ring holds %d segments", res.Slabs(), res.Held())
	}
}
