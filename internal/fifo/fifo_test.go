package fifo

import "testing"

// TestRingOrderAcrossWrapAndGrowth pushes and pops so the ring wraps,
// then grows it while wrapped: order, At, Front and Back must hold
// throughout, against a plain slice as the oracle.
func TestRingOrderAcrossWrapAndGrowth(t *testing.T) {
	var r Ring[int]
	var want []int
	next := 0
	check := func(when string) {
		t.Helper()
		if r.Len() != len(want) {
			t.Fatalf("%s: Len %d, want %d", when, r.Len(), len(want))
		}
		for i, w := range want {
			if got := *r.At(i); got != w {
				t.Fatalf("%s: At(%d) = %d, want %d", when, i, got, w)
			}
		}
		if len(want) > 0 && (*r.Front() != want[0] || *r.Back() != want[len(want)-1]) {
			t.Fatalf("%s: Front/Back = %d/%d, want %d/%d", when, *r.Front(), *r.Back(), want[0], want[len(want)-1])
		}
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 5+round; i++ {
			r.Push(next)
			want = append(want, next)
			next++
		}
		check("after pushes")
		for i := 0; i < 3+round; i++ {
			r.Pop()
			want = want[1:]
		}
		check("after pops")
	}
	r.Clear()
	want = nil
	check("after Clear")
	r.Push(7)
	want = append(want, 7)
	check("after Clear and Push")
}

// TestRingPopZeroesSlot: a popped slot must not pin what it held.
func TestRingPopZeroesSlot(t *testing.T) {
	var r Ring[*int]
	v := new(int)
	r.Push(v)
	r.Pop()
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a popped pointer", i)
		}
	}
}

func TestRingSteadyStateAllocs(t *testing.T) {
	var r Ring[[2]uint64]
	cycle := func() {
		for i := 0; i < 20; i++ {
			r.Push([2]uint64{uint64(i)})
		}
		for r.Len() > 0 {
			r.Pop()
		}
	}
	cycle() // sizes the buffer
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("%.1f allocations per fill/drain cycle, want 0", avg)
	}
}
