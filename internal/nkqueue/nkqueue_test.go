package nkqueue

import (
	"runtime"
	"testing"
	"time"

	"netkernel/internal/nqe"
	"netkernel/internal/shm"
)

func TestQueuePushPop(t *testing.T) {
	q, err := NewQueue(Config{Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	in := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: 1, FD: 5, Seq: 99, DataLen: 1448}
	if !q.Push(&in) {
		t.Fatal("push failed")
	}
	if q.Len() != 1 {
		t.Fatalf("Len = %d", q.Len())
	}
	var out nqe.Element
	if !q.Pop(&out) {
		t.Fatal("pop failed")
	}
	if out != in {
		t.Fatalf("pop = %+v, want %+v", out, in)
	}
	if q.Pop(&out) {
		t.Fatal("pop succeeded on empty queue")
	}
}

func TestQueueFull(t *testing.T) {
	q, _ := NewQueue(Config{Slots: 2})
	e := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM}
	if !q.Push(&e) || !q.Push(&e) {
		t.Fatal("push failed below capacity")
	}
	if q.Push(&e) {
		t.Fatal("push succeeded beyond capacity")
	}
}

// Refused counts each push that placed less than it was offered, a
// full ring's or an injected stall's, and nothing else.
func TestQueueRefused(t *testing.T) {
	q, _ := NewQueue(Config{Slots: 4})
	if q.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", q.Cap())
	}
	e := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM}
	es := make([]nqe.Element, 3)
	span := make([]byte, 2*nqe.Size)
	q.Push(&e)
	q.PushBatch(es) // fills the ring exactly
	q.PushBatch(nil)
	if q.Refused() != 0 {
		t.Fatalf("Refused = %d after pushes that fit, want 0", q.Refused())
	}
	q.Push(&e)
	q.PushBatch(es)
	q.PushSpan(span)
	if q.Refused() != 3 {
		t.Fatalf("Refused = %d after three pushes into a full ring, want 3", q.Refused())
	}
	q.PopBatch(make([]nqe.Element, 2))
	if n := q.PushBatch(es); n != 2 || q.Refused() != 4 {
		t.Fatalf("a 3-element batch into 2 free slots placed %d, Refused = %d; want 2 and 4", n, q.Refused())
	}
	q.PopBatch(make([]nqe.Element, 4))
	q.SetPushStall(func() bool { return true })
	q.Push(&e)
	q.PushSpan(span)
	if q.Refused() != 6 || q.Len() != 0 {
		t.Fatalf("Refused = %d, Len = %d after two stalled pushes, want 6 and 0", q.Refused(), q.Len())
	}
}

func TestQueuePopBatch(t *testing.T) {
	q, _ := NewQueue(Config{Slots: 16})
	for i := 0; i < 10; i++ {
		e := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, Seq: uint64(i)}
		q.Push(&e)
	}
	batch := make([]nqe.Element, 4)
	if n := q.PopBatch(batch); n != 4 {
		t.Fatalf("first batch = %d, want 4", n)
	}
	for i, e := range batch {
		if e.Seq != uint64(i) {
			t.Fatalf("batch[%d].Seq = %d", i, e.Seq)
		}
	}
	rest := make([]nqe.Element, 16)
	if n := q.PopBatch(rest); n != 6 {
		t.Fatalf("second batch = %d, want 6", n)
	}
}

func TestMoveIsVerbatim(t *testing.T) {
	src, _ := NewQueue(Config{Slots: 8})
	dst, _ := NewQueue(Config{Slots: 8})
	in := nqe.Element{Op: nqe.OpConnect, Source: nqe.FromVM, VMID: 7, FD: 3, Seq: 123, Arg0: nqe.PackAddr([4]byte{10, 0, 0, 2}, 80)}
	src.Push(&in)
	if !Move(dst, src) {
		t.Fatal("move failed")
	}
	if src.Len() != 0 || dst.Len() != 1 {
		t.Fatalf("lens after move: src=%d dst=%d", src.Len(), dst.Len())
	}
	var out nqe.Element
	dst.Pop(&out)
	if out != in {
		t.Fatalf("moved element mutated: %+v vs %+v", out, in)
	}
}

func TestMoveEdgeCases(t *testing.T) {
	src, _ := NewQueue(Config{Slots: 2})
	dst, _ := NewQueue(Config{Slots: 2})
	if Move(dst, src) {
		t.Fatal("move from empty queue succeeded")
	}
	e := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM}
	src.Push(&e)
	dst.Push(&e)
	dst.Push(&e) // dst now full
	if Move(dst, src) {
		t.Fatal("move into full queue succeeded")
	}
	if src.Len() != 1 {
		t.Fatal("failed move consumed the source element")
	}
}

func TestPriorityQueueOrdering(t *testing.T) {
	p, err := NewQueue(Config{Slots: 8, Priority: true})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave: bulk data first, then a connection event.
	data := nqe.Element{Op: nqe.OpNewData, Source: nqe.FromNSM, Seq: 1}
	conn := nqe.Element{Op: nqe.OpNewConn, Source: nqe.FromNSM, Seq: 2}
	p.Push(&data)
	p.Push(&data)
	p.Push(&conn)
	var e nqe.Element
	if !p.Pop(&e) || e.Op != nqe.OpNewConn {
		t.Fatalf("first pop = %v, want the connection event (HoL avoidance)", e.Op)
	}
	if !p.Pop(&e) || e.Op != nqe.OpNewData {
		t.Fatalf("second pop = %v, want data", e.Op)
	}
	if p.Len() != 1 {
		t.Fatalf("Len = %d", p.Len())
	}
}

func TestPriorityQueueDataFloodDoesNotBlockConn(t *testing.T) {
	p, _ := NewQueue(Config{Slots: 4, Priority: true})
	data := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM}
	for p.Push(&data) {
	}
	// Data ring is full, but a connection event still gets through.
	conn := nqe.Element{Op: nqe.OpConnect, Source: nqe.FromVM}
	if !p.Push(&conn) {
		t.Fatal("connection event blocked behind full data ring")
	}
	var e nqe.Element
	if !p.Pop(&e) || e.Op != nqe.OpConnect {
		t.Fatal("connection event not delivered first")
	}
}

func TestNewSet(t *testing.T) {
	res, _ := shm.NewSlotReserve(DefaultSlots, nqe.Size)
	for _, priority := range []bool{false, true} {
		s, err := NewSet(Config{Slots: 8, Priority: priority}, res)
		if err != nil {
			t.Fatal(err)
		}
		for name, q := range map[string]*Queue{"job": s.Job, "completion": s.Completion, "receive": s.Receive} {
			e := nqe.Element{Op: nqe.OpSocket, Source: nqe.FromVM, Seq: 7}
			if !q.Push(&e) {
				t.Fatalf("%s (priority=%v): push failed", name, priority)
			}
			var out nqe.Element
			if !q.Pop(&out) || out.Seq != 7 {
				t.Fatalf("%s (priority=%v): pop = %+v", name, priority, out)
			}
		}
	}
	// Both sets drew from res: one segment for each ring pushed to (a
	// priority queue's connection-event ring), none for the rest.
	if n := res.Held(); n != 6 {
		t.Fatalf("two sets hold %d segments of their reserve, want 6", n)
	}
}

func TestNewQueueRejectsBadSlots(t *testing.T) {
	if _, err := NewQueue(Config{Slots: 3}); err == nil {
		t.Fatal("non-power-of-two slot count accepted")
	}
	if _, err := NewQueue(Config{Slots: 3, Priority: true}); err == nil {
		t.Fatal("non-power-of-two slot count accepted by priority queue")
	}
	if _, err := NewSet(Config{Slots: 3}, nil); err == nil {
		t.Fatal("non-power-of-two slot count accepted by set")
	}
}

func TestMoveBatchVerbatimAndOrdered(t *testing.T) {
	src, _ := NewQueue(Config{Slots: 16})
	dst, _ := NewQueue(Config{Slots: 16})
	for i := 0; i < 10; i++ {
		e := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, Seq: uint64(i), DataLen: 1448}
		src.Push(&e)
	}
	if n := MoveBatch(dst, src, 64); n != 10 {
		t.Fatalf("MoveBatch moved %d, want 10", n)
	}
	if src.Len() != 0 || dst.Len() != 10 {
		t.Fatalf("lens after batch move: src=%d dst=%d", src.Len(), dst.Len())
	}
	var out nqe.Element
	for i := 0; i < 10; i++ {
		if !dst.Pop(&out) || out.Seq != uint64(i) {
			t.Fatalf("element %d arrived as Seq=%d", i, out.Seq)
		}
	}
}

// A batch that straddles the source ring's wraparound boundary must
// still arrive complete and in order.
func TestMoveBatchAcrossWraparound(t *testing.T) {
	src, _ := NewQueue(Config{Slots: 8})
	dst, _ := NewQueue(Config{Slots: 8})
	var e, out nqe.Element
	// Rotate the ring so head sits at slot 6.
	for i := 0; i < 6; i++ {
		e = nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM}
		src.Push(&e)
		src.Pop(&out)
	}
	for i := 0; i < 5; i++ { // occupies slots 6,7,0,1,2
		e = nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, Seq: uint64(100 + i)}
		src.Push(&e)
	}
	if n := MoveBatch(dst, src, 5); n != 5 {
		t.Fatalf("wrapped MoveBatch moved %d, want 5", n)
	}
	for i := 0; i < 5; i++ {
		if !dst.Pop(&out) || out.Seq != uint64(100+i) {
			t.Fatalf("wrapped element %d arrived as Seq=%d", i, out.Seq)
		}
	}
}

func TestMoveBatchStopsAtFullDst(t *testing.T) {
	src, _ := NewQueue(Config{Slots: 16})
	dst, _ := NewQueue(Config{Slots: 4})
	e := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM}
	for i := 0; i < 10; i++ {
		src.Push(&e)
	}
	if n := MoveBatch(dst, src, 64); n != 4 {
		t.Fatalf("MoveBatch into 4-slot dst moved %d, want 4", n)
	}
	if src.Len() != 6 {
		t.Fatalf("src kept %d, want 6 (no elements lost)", src.Len())
	}
}

func TestPushBatchAndSpanRoundTrip(t *testing.T) {
	q, _ := NewQueue(Config{Slots: 16})
	es := make([]nqe.Element, 10)
	for i := range es {
		es[i] = nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, Seq: uint64(i)}
	}
	if n := q.PushBatch(es); n != 10 {
		t.Fatalf("PushBatch = %d, want 10", n)
	}
	span, n := q.FrontSpan(100)
	if n == 0 {
		t.Fatal("FrontSpan empty after PushBatch")
	}
	if got := nqe.Slot(span).Seq(); got != 0 {
		t.Fatalf("first slot Seq = %d, want 0", got)
	}
	q.ReleaseSpan(n)
	dst, _ := NewQueue(Config{Slots: 16})
	if pushed := dst.PushSpan(span[:n*nqe.Size]); pushed != n {
		t.Fatalf("PushSpan = %d, want %d", pushed, n)
	}
	var out nqe.Element
	for i := 0; i < n; i++ {
		if !dst.Pop(&out) || out.Seq != uint64(i) {
			t.Fatalf("PushSpan element %d arrived as Seq=%d", i, out.Seq)
		}
	}
}

func TestPushBatchStopsWhenFull(t *testing.T) {
	q, _ := NewQueue(Config{Slots: 4})
	es := make([]nqe.Element, 10)
	for i := range es {
		es[i] = nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, Seq: uint64(i)}
	}
	if n := q.PushBatch(es); n != 4 {
		t.Fatalf("PushBatch into 4-slot queue = %d, want 4", n)
	}
	var out nqe.Element
	for i := 0; i < 4; i++ {
		if !q.Pop(&out) || out.Seq != uint64(i) {
			t.Fatalf("kept prefix broken at %d (Seq=%d)", i, out.Seq)
		}
	}
}

func TestPriorityQueueBatchOps(t *testing.T) {
	p, _ := NewQueue(Config{Slots: 8, Priority: true})
	es := []nqe.Element{
		{Op: nqe.OpNewData, Source: nqe.FromNSM, Seq: 1},
		{Op: nqe.OpNewConn, Source: nqe.FromNSM, Seq: 2},
		{Op: nqe.OpNewData, Source: nqe.FromNSM, Seq: 3},
		{Op: nqe.OpConnClosed, Source: nqe.FromNSM, Seq: 4},
	}
	if n := p.PushBatch(es); n != 4 {
		t.Fatalf("PushBatch = %d, want 4", n)
	}
	// PopBatch drains the high-priority ring (conn events) first; the
	// close stays behind the stream's data.
	out := make([]nqe.Element, 8)
	if n := p.PopBatch(out); n != 4 {
		t.Fatalf("PopBatch = %d, want 4", n)
	}
	wantSeq := []uint64{2, 1, 3, 4}
	for i, w := range wantSeq {
		if out[i].Seq != w {
			t.Fatalf("PopBatch[%d].Seq = %d, want %d", i, out[i].Seq, w)
		}
	}
}

func TestPriorityQueueSpanOps(t *testing.T) {
	p, _ := NewQueue(Config{Slots: 8, Priority: true})
	es := []nqe.Element{
		{Op: nqe.OpNewData, Source: nqe.FromNSM, Seq: 1},
		{Op: nqe.OpNewConn, Source: nqe.FromNSM, Seq: 2},
	}
	p.PushBatch(es)
	// First span must come from the high-priority ring.
	span, n := p.FrontSpan(8)
	if n != 1 || nqe.Slot(span).Op() != nqe.OpNewConn {
		t.Fatalf("first span = %d slots op %v, want the conn event", n, nqe.Slot(span).Op())
	}
	p.ReleaseSpan(1)
	span, n = p.FrontSpan(8)
	if n != 1 || nqe.Slot(span).Op() != nqe.OpNewData {
		t.Fatalf("second span = %d slots, want the data event", n)
	}
	p.ReleaseSpan(1)

	// PushSpan routes raw records by op class.
	raw := make([]byte, 2*nqe.Size)
	(&nqe.Element{Op: nqe.OpNewData, Source: nqe.FromNSM, Seq: 10}).Encode(raw)
	(&nqe.Element{Op: nqe.OpEstablished, Source: nqe.FromNSM, Seq: 11}).Encode(raw[nqe.Size:])
	if n := p.PushSpan(raw); n != 2 {
		t.Fatalf("PushSpan = %d, want 2", n)
	}
	var out nqe.Element
	if !p.Pop(&out) || out.Seq != 11 {
		t.Fatalf("conn event not prioritized after PushSpan (Seq=%d)", out.Seq)
	}
}

// Concurrent producer/consumer exercising the batched paths end to end
// under -race: PushBatch on one goroutine, PopBatch on another.
func TestQueueBatchConcurrent(t *testing.T) {
	q, _ := NewQueue(Config{Slots: 64})
	const total = 30000
	errc := make(chan error, 1)
	go func() {
		seq := uint64(0)
		buf := make([]nqe.Element, 13)
		for seq < total {
			n := 0
			for n < len(buf) && seq < total {
				buf[n] = nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, Seq: seq}
				seq++
				n++
			}
			off := 0
			for off < n {
				m := q.PushBatch(buf[off:n])
				if m == 0 {
					runtime.Gosched()
				}
				off += m
			}
		}
	}()
	go func() {
		buf := make([]nqe.Element, 19)
		next := uint64(0)
		for next < total {
			n := q.PopBatch(buf)
			if n == 0 {
				runtime.Gosched()
			}
			for i := 0; i < n; i++ {
				if buf[i].Seq != next {
					errc <- errBatchOrder{next, buf[i].Seq}
					return
				}
				next++
			}
		}
		errc <- nil
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent batch exchange timed out")
	}
}

type errBatchOrder struct{ want, got uint64 }

func (e errBatchOrder) Error() string { return "batched elements out of order" }

// Four rings of one fresh pair — six-queue sets on four shards over one
// queue depth of reserve, as nkchan.NewPair builds them — each take a
// 129-slot burst, as lossy_bulk's receive rings do mid-period: every
// segment comes from the slab allocated at set-up, and the bursts
// allocate nothing.
func TestAllocsRingBurstsFromOneSlab(t *testing.T) {
	const burst = 129
	type pair struct {
		res *shm.SlotReserve
		qs  []*Queue
	}
	fresh := func() pair {
		res, err := shm.NewSlotReserve(DefaultSlots, nqe.Size)
		if err != nil {
			t.Fatal(err)
		}
		p := pair{res: res}
		for shard := 0; shard < 4; shard++ {
			vm, err := NewSet(Config{}, res)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewSet(Config{}, res); err != nil {
				t.Fatal(err)
			}
			p.qs = append(p.qs, vm.Receive)
		}
		return p
	}
	pairs := []pair{fresh(), fresh()} // AllocsPerRun's warm-up run, then the measured one
	es := make([]nqe.Element, burst)
	for i := range es {
		es[i] = nqe.Element{Op: nqe.OpNewData, Source: nqe.FromNSM, Seq: uint64(i)}
	}
	run := 0
	avg := testing.AllocsPerRun(1, func() {
		for _, q := range pairs[run].qs {
			if n := q.PushBatch(es); n != burst {
				t.Fatalf("burst placed %d of %d", n, burst)
			}
		}
		run++
	})
	if avg != 0 {
		t.Fatalf("%.1f allocations for four %d-slot bursts, want 0", avg, burst)
	}
	for _, p := range pairs {
		if n, segs := p.res.Slabs(), p.res.Held(); n != 1 || segs != 4*((burst+shm.SegmentSlots-1)/shm.SegmentSlots) {
			t.Fatalf("four bursts hold %d segments of %d slabs, want %d of 1", segs, n, 4*((burst+shm.SegmentSlots-1)/shm.SegmentSlots))
		}
	}
}
