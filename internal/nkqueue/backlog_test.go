package nkqueue

import (
	"testing"

	"netkernel/internal/nqe"
)

func seqElem(seq uint64) *nqe.Element {
	return &nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, Seq: seq}
}

// popSeqs drains q and returns the Seq of every element, in order.
func popSeqs(q *Queue) []uint64 {
	var out []uint64
	var e nqe.Element
	for q.Pop(&e) {
		out = append(out, e.Seq)
	}
	return out
}

func wantSeqs(t *testing.T, what string, got []uint64, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, want %v", what, got, want)
		}
	}
}

func TestBacklogPushThroughOnlyWhenEmpty(t *testing.T) {
	q, _ := NewQueue(Config{Slots: 2})
	var b Backlog
	if !b.Push(q, seqElem(1)) || !b.Push(q, seqElem(2)) {
		t.Fatal("an empty backlog must push straight into a ring with room")
	}
	if b.Push(q, seqElem(3)) || b.Len() != 1 {
		t.Fatalf("full ring: element 3 must park (len %d)", b.Len())
	}
	// Room again, but element 3 is still parked: 4 must not overtake it.
	var e nqe.Element
	q.Pop(&e)
	if b.Push(q, seqElem(4)) || b.Len() != 2 {
		t.Fatalf("element 4 went around a parked element (len %d)", b.Len())
	}
	if n := b.Drain(); n != 1 || b.Len() != 1 {
		t.Fatalf("drained %d with one free slot, %d left", n, b.Len())
	}
	wantSeqs(t, "ring", popSeqs(q), 2, 3)
	if n := b.Drain(); n != 1 || b.Len() != 0 {
		t.Fatalf("drained %d, %d left", n, b.Len())
	}
	wantSeqs(t, "ring", popSeqs(q), 4)
	if !b.Push(q, seqElem(5)) {
		t.Fatal("a drained backlog must push through again")
	}
}

// TestBacklogOrderAcrossTwoRings parks elements bound for two rings and
// checks that Drain keeps the global order, stops at the first refusal
// even though the other ring has room, and wakes the ring of every
// element it moves.
func TestBacklogOrderAcrossTwoRings(t *testing.T) {
	a, _ := NewQueue(Config{Slots: 2})
	c, _ := NewQueue(Config{Slots: 8})
	var woken []*Queue
	b := Backlog{Wake: func(dst *Queue) { woken = append(woken, dst) }}
	b.Push(a, seqElem(1))
	b.Push(a, seqElem(2))
	for seq, dst := range []*Queue{a, c, c, a, c} { // 3→a 4→c 5→c 6→a 7→c
		if b.Push(dst, seqElem(uint64(seq+3))) {
			t.Fatalf("element %d did not park", seq+3)
		}
	}
	if len(woken) != 0 {
		t.Fatal("Push must leave the kick to its caller")
	}

	if n := b.Drain(); n != 0 || len(woken) != 0 {
		t.Fatalf("ring a full: drained %d, woke %d", n, len(woken))
	}
	if c.Len() != 0 {
		t.Fatal("an element for ring c overtook the refused head")
	}

	var e nqe.Element
	a.Pop(&e) // one slot: 3 fits, 4 and 5 follow into c, 6 is refused
	if n := b.Drain(); n != 3 || b.Len() != 2 {
		t.Fatalf("drained %d, %d left; want 3 and 2", n, b.Len())
	}
	if len(woken) != 3 || woken[0] != a || woken[1] != c || woken[2] != c {
		t.Fatalf("woke %v, want ring a, then ring c twice", woken)
	}
	wantSeqs(t, "ring a", popSeqs(a), 2, 3)
	wantSeqs(t, "ring c", popSeqs(c), 4, 5)

	woken = nil
	if n := b.Drain(); n != 2 || b.Len() != 0 {
		t.Fatalf("drained %d, %d left", n, b.Len())
	}
	if len(woken) != 2 || woken[0] != a || woken[1] != c {
		t.Fatalf("woke %v, want ring a then ring c", woken)
	}
	wantSeqs(t, "ring a", popSeqs(a), 6)
	wantSeqs(t, "ring c", popSeqs(c), 7)
}

func TestBacklogHonoursPushStall(t *testing.T) {
	for name, mk := range map[string]func() *Queue{
		"plain":    func() *Queue { q, _ := NewQueue(Config{Slots: 8}); return q },
		"priority": func() *Queue { q, _ := NewQueue(Config{Slots: 8, Priority: true}); return q },
	} {
		q := mk()
		stalled := true
		q.SetPushStall(func() bool { return stalled })
		var b Backlog
		if b.Push(q, seqElem(1)) || b.Push(q, seqElem(2)) {
			t.Fatalf("%s: a stalled ring took an element", name)
		}
		if n := b.Drain(); n != 0 || q.Len() != 0 {
			t.Fatalf("%s: drained %d into a stalled ring", name, n)
		}
		stalled = false
		if n := b.Drain(); n != 2 {
			t.Fatalf("%s: drained %d after the stall cleared, want 2", name, n)
		}
		wantSeqs(t, name, popSeqs(q), 1, 2)
	}
}

func TestBacklogDiscardVisitsEachOnce(t *testing.T) {
	q, _ := NewQueue(Config{Slots: 2})
	var b Backlog
	// Wrap the circular buffer: park, drain a few, park more.
	for seq := uint64(1); seq <= 9; seq++ {
		b.Push(q, seqElem(seq))
	}
	popSeqs(q)
	b.Drain()
	popSeqs(q)
	for seq := uint64(10); seq <= 13; seq++ {
		b.Push(q, seqElem(seq))
	}
	var seen []uint64
	b.Discard(func(e *nqe.Element) { seen = append(seen, e.Seq) })
	wantSeqs(t, "discarded", seen, 5, 6, 7, 8, 9, 10, 11, 12, 13)
	if b.Len() != 0 {
		t.Fatalf("%d elements left after Discard", b.Len())
	}
	b.Discard(func(*nqe.Element) { t.Fatal("Discard visited an element twice") })
	if q.Len() != 0 {
		t.Fatal("Discard pushed into the ring")
	}
}

func TestBacklogSteadyStateAllocs(t *testing.T) {
	q, _ := NewQueue(Config{Slots: 4})
	var b Backlog
	e := seqElem(1)
	var out nqe.Element
	cycle := func() {
		for i := 0; i < 12; i++ { // 4 pass through, 8 park
			b.Push(q, e)
		}
		for b.Len() > 0 || q.Len() > 0 {
			for q.Pop(&out) {
			}
			b.Drain()
		}
	}
	cycle() // sizes the buffer
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Fatalf("%.1f allocations per park/drain cycle, want 0", avg)
	}
}

// TestAllocsBacklogPushLiteral is the escape gate of the conveyor's
// producers: an element literal pushed through a Backlog into a plain
// or a priority Queue stays on the caller's stack. (Behind an interface
// it escaped: one heap object per nqe.)
func TestAllocsBacklogPushLiteral(t *testing.T) {
	for name, cfg := range map[string]Config{
		"plain":    {Slots: 4},
		"priority": {Slots: 4, Priority: true},
	} {
		q, _ := NewQueue(cfg)
		var b Backlog
		var out nqe.Element
		seq := uint64(0)
		cycle := func() {
			for i := 0; i < 12; i++ { // some go through, the rest park
				seq++
				op := nqe.OpSend
				if i%3 == 0 {
					op = nqe.OpConnect
				}
				b.Push(q, &nqe.Element{Op: op, Source: nqe.FromVM, Seq: seq})
			}
			for b.Len() > 0 || q.Len() > 0 {
				for q.Pop(&out) {
				}
				b.Drain()
			}
		}
		cycle() // sizes the backlog
		if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
			t.Errorf("%s: %.1f allocations per 12 element literals pushed, want 0", name, avg)
		}
	}
}
