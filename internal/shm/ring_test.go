package shm

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestNewRingValidation(t *testing.T) {
	for _, slots := range []int{0, -1, 3, 6, 1000} {
		if _, err := NewRing(slots, 64); err == nil {
			t.Errorf("NewRing(%d, 64) accepted a non-power-of-two", slots)
		}
	}
	if _, err := NewRing(8, 0); err == nil {
		t.Error("NewRing accepted zero slot size")
	}
	r, err := NewRing(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cap() != 8 || r.SlotSize() != 64 {
		t.Fatalf("Cap/SlotSize = %d/%d, want 8/64", r.Cap(), r.SlotSize())
	}
}

func TestRingFIFO(t *testing.T) {
	r, _ := NewRing(4, 8)
	for i := 0; i < 100; i++ {
		var in [8]byte
		binary.LittleEndian.PutUint64(in[:], uint64(i))
		if !r.Enqueue(in[:]) {
			t.Fatalf("enqueue %d failed on non-full ring", i)
		}
		var out [8]byte
		if !r.Dequeue(out[:]) {
			t.Fatalf("dequeue %d failed on non-empty ring", i)
		}
		if out != in {
			t.Fatalf("dequeue %d = %v, want %v", i, out, in)
		}
	}
}

func TestRingFullAndEmpty(t *testing.T) {
	r, _ := NewRing(4, 1)
	if !r.Empty() || r.Full() {
		t.Fatal("fresh ring should be empty and not full")
	}
	for i := 0; i < 4; i++ {
		if !r.Enqueue([]byte{byte(i)}) {
			t.Fatalf("enqueue %d failed", i)
		}
	}
	if !r.Full() || r.Len() != 4 {
		t.Fatalf("ring should be full with 4; Len = %d", r.Len())
	}
	if r.Enqueue([]byte{9}) {
		t.Fatal("enqueue succeeded on full ring")
	}
	var b [1]byte
	for i := 0; i < 4; i++ {
		if !r.Dequeue(b[:]) || b[0] != byte(i) {
			t.Fatalf("dequeue %d got %d", i, b[0])
		}
	}
	if !r.Empty() {
		t.Fatal("ring should be empty after draining")
	}
	if r.Dequeue(b[:]) {
		t.Fatal("dequeue succeeded on empty ring")
	}
}

func TestRingWraparound(t *testing.T) {
	r, _ := NewRing(2, 4)
	next := byte(0)
	for round := 0; round < 50; round++ {
		for r.Enqueue([]byte{next, next, next, next}) {
			next++
		}
		var b [4]byte
		for r.Dequeue(b[:]) {
			if b[0] != b[3] {
				t.Fatal("slot torn across wraparound")
			}
		}
	}
}

func TestRingReserveCommitZeroCopy(t *testing.T) {
	r, _ := NewRing(4, 16)
	slot, ok := r.Reserve()
	if !ok {
		t.Fatal("Reserve failed on empty ring")
	}
	copy(slot, "hello")
	// Not yet visible.
	if _, ok := r.Front(); ok {
		t.Fatal("uncommitted slot visible to consumer")
	}
	r.Commit()
	front, ok := r.Front()
	if !ok || !bytes.HasPrefix(front, []byte("hello")) {
		t.Fatalf("Front = %q, %v", front, ok)
	}
	r.Release()
	if !r.Empty() {
		t.Fatal("ring not empty after Release")
	}
}

func TestRingOversizeEnqueuePanics(t *testing.T) {
	r, _ := NewRing(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("oversize enqueue did not panic")
		}
	}()
	r.Enqueue(make([]byte, 5))
}

// Property: any interleaving of enqueues and dequeues preserves FIFO
// content and never exceeds capacity.
func TestRingQuickFIFO(t *testing.T) {
	err := quick.Check(func(ops []bool) bool {
		r, _ := NewRing(8, 8)
		var model [][8]byte
		next := uint64(0)
		for _, enq := range ops {
			if enq {
				var in [8]byte
				binary.LittleEndian.PutUint64(in[:], next)
				if r.Enqueue(in[:]) {
					model = append(model, in)
					next++
				} else if len(model) != 8 {
					return false // refused while not full
				}
			} else {
				var out [8]byte
				if r.Dequeue(out[:]) {
					if len(model) == 0 || out != model[0] {
						return false
					}
					model = model[1:]
				} else if len(model) != 0 {
					return false // refused while not empty
				}
			}
			if r.Len() != len(model) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// One producer and one consumer hammer the ring concurrently; every value
// must arrive exactly once, in order. Run with -race to check the
// publication protocol.
func TestRingSPSCConcurrent(t *testing.T) {
	r, _ := NewRing(64, 8)
	const n = 20000
	errc := make(chan error, 1)
	go func() {
		var in [8]byte
		for i := uint64(0); i < n; i++ {
			binary.LittleEndian.PutUint64(in[:], i)
			for !r.Enqueue(in[:]) {
				runtime.Gosched() // single-core hosts need the yield
			}
		}
	}()
	go func() {
		var out [8]byte
		for i := uint64(0); i < n; i++ {
			for !r.Dequeue(out[:]) {
				runtime.Gosched()
			}
			if got := binary.LittleEndian.Uint64(out[:]); got != i {
				errc <- errValue{i, got}
				return
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
		t.Fatal("SPSC exchange timed out")
	}
}

type errValue struct{ want, got uint64 }

func (e errValue) Error() string {
	return "out-of-order value"
}

func TestRingReserveNBasics(t *testing.T) {
	r, _ := NewRing(8, 4)
	if _, n := r.ReserveN(0); n != 0 {
		t.Fatalf("ReserveN(0) = %d slots, want 0", n)
	}
	span, n := r.ReserveN(5)
	if n != 5 || len(span) != 5*4 {
		t.Fatalf("ReserveN(5) = %d slots, %d bytes; want 5, 20", n, len(span))
	}
	for i := 0; i < 5; i++ {
		span[i*4] = byte(i)
	}
	// Not yet visible.
	if _, n := r.FrontN(8); n != 0 {
		t.Fatalf("uncommitted span visible: FrontN = %d slots", n)
	}
	r.CommitN(5)
	got, n := r.FrontN(8)
	if n != 5 {
		t.Fatalf("FrontN = %d slots, want 5", n)
	}
	for i := 0; i < 5; i++ {
		if got[i*4] != byte(i) {
			t.Fatalf("slot %d = %d, want %d", i, got[i*4], i)
		}
	}
	r.ReleaseN(5)
	if !r.Empty() {
		t.Fatal("ring not empty after ReleaseN")
	}
}

// A span must never wrap: reservations and reads are truncated at the
// buffer end and the next call returns the wrapped remainder.
func TestRingBatchWraparound(t *testing.T) {
	r, _ := NewRing(8, 1)
	// Advance head/tail to 6 so a 5-slot batch straddles the boundary.
	for i := 0; i < 6; i++ {
		if !r.Enqueue([]byte{0}) || !r.Dequeue(make([]byte, 1)) {
			t.Fatal("prefill failed")
		}
	}
	span, n := r.ReserveN(5)
	if n != 2 { // slots 6,7 only: truncated at the buffer end
		t.Fatalf("ReserveN(5) at offset 6 = %d slots, want 2", n)
	}
	span[0], span[1] = 6, 7
	r.CommitN(2)
	span, n = r.ReserveN(3)
	if n != 3 { // wrapped remainder at the start
		t.Fatalf("wrapped ReserveN(3) = %d slots, want 3", n)
	}
	span[0], span[1], span[2] = 0, 1, 2
	r.CommitN(3)

	got, n := r.FrontN(8)
	if n != 2 || got[0] != 6 || got[1] != 7 {
		t.Fatalf("FrontN before boundary = %d slots %v, want 2 [6 7]", n, got[:n])
	}
	r.ReleaseN(2)
	got, n = r.FrontN(8)
	if n != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("FrontN after boundary = %d slots %v, want 3 [0 1 2]", n, got[:n])
	}
	r.ReleaseN(3)
	if !r.Empty() {
		t.Fatal("ring not empty after wrapped batch")
	}
}

func TestRingBatchFullAndEmpty(t *testing.T) {
	r, _ := NewRing(4, 1)
	span, n := r.ReserveN(100)
	if n != 4 || len(span) != 4 {
		t.Fatalf("full-ring ReserveN = %d slots, want the whole ring (4)", n)
	}
	r.CommitN(4)
	if _, n := r.ReserveN(1); n != 0 {
		t.Fatalf("ReserveN on full ring = %d slots, want 0", n)
	}
	if !r.Full() {
		t.Fatal("ring should be full")
	}
	_, n = r.FrontN(100)
	if n != 4 {
		t.Fatalf("FrontN on full ring = %d slots, want 4", n)
	}
	r.ReleaseN(4)
	if _, n := r.FrontN(1); n != 0 {
		t.Fatalf("FrontN on empty ring = %d slots, want 0", n)
	}
}

// Partial commit: committing fewer slots than reserved publishes only
// the prefix, and the next ReserveN hands the rest out again.
func TestRingPartialCommit(t *testing.T) {
	r, _ := NewRing(8, 1)
	span, n := r.ReserveN(6)
	if n != 6 {
		t.Fatalf("ReserveN(6) = %d", n)
	}
	span[0], span[1] = 10, 11
	r.CommitN(2)
	if r.Len() != 2 {
		t.Fatalf("Len after partial commit = %d, want 2", r.Len())
	}
	span, n = r.ReserveN(6)
	if n != 6 {
		t.Fatalf("re-ReserveN(6) = %d", n)
	}
	span[0] = 12
	r.CommitN(1)
	var got []byte
	for len(got) < 3 {
		s, n := r.FrontN(8)
		if n == 0 {
			t.Fatalf("drained %d slots, want 3", len(got))
		}
		got = append(got, s[:n]...)
		r.ReleaseN(n)
	}
	if got[0] != 10 || got[1] != 11 || got[2] != 12 {
		t.Fatalf("drained %v, want [10 11 12]", got)
	}
}

// One producer reserves/commits spans while one consumer drains spans;
// every value must arrive exactly once, in order. Run with -race to
// check that CommitN/ReleaseN publish whole spans correctly.
func TestRingSPSCBatchConcurrent(t *testing.T) {
	r, _ := NewRing(64, 8)
	const n = 50000
	errc := make(chan error, 1)
	go func() {
		i := uint64(0)
		for i < n {
			span, got := r.ReserveN(17) // deliberately co-prime with the ring size
			if got == 0 {
				runtime.Gosched()
				continue
			}
			fill := 0
			for fill < got && i < n {
				binary.LittleEndian.PutUint64(span[fill*8:], i)
				i++
				fill++
			}
			r.CommitN(fill)
		}
	}()
	go func() {
		i := uint64(0)
		for i < n {
			span, got := r.FrontN(23)
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
		errc <- nil
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("SPSC batch exchange timed out")
	}
}

// SlotSize returns the slot size in bytes.
func (r *Ring) SlotSize() int { return r.slotSize }

// Empty reports whether no slot is occupied.
func (r *Ring) Empty() bool { return r.tail.Load() == r.head.Load() }

// Full reports whether every slot is occupied.
func (r *Ring) Full() bool { return r.tail.Load()-r.head.Load() > r.mask }
