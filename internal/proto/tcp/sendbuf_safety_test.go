package tcp

import (
	"bytes"
	"testing"
	"time"

	"netkernel/internal/shm"
	"netkernel/internal/sim"
)

// These tests pin down the ownership contract of WriteOwned: a
// borrowed huge-page chunk must stay alive (refcount held, release not
// fired) until the cumulative ACK passes its last byte — including
// when segments covering it are lost and retransmitted — and must be
// released exactly once afterwards. An early release here would be a
// use-after-free on the retransmission path; a missed one leaks the
// chunk. The shm pool's own panics (double free, retain-after-free)
// act as the tripwires.

// ownedTransfer pushes the pool-backed chunks through a, drains b, and
// returns the received bytes.
func ownedTransfer(t *testing.T, n *testNet, pool *shm.HugePages, chunks []shm.Chunk, deadline time.Duration) []byte {
	t.Helper()
	total := 0
	for _, c := range chunks {
		total += len(pool.Bytes(c))
	}
	next := 0
	pump := func() {
		for next < len(chunks) {
			c := chunks[next]
			if !n.a.WriteOwned(pool.Bytes(c), pool, c.Offset) {
				return
			}
			next++
		}
	}
	pump()
	var got bytes.Buffer
	buf := make([]byte, 64<<10)
	end := n.loop.Now().Add(deadline)
	for n.loop.Now() < end && got.Len() < total {
		n.loop.RunFor(time.Millisecond)
		pump()
		for {
			m, _ := n.b.Read(buf)
			if m == 0 {
				break
			}
			got.Write(buf[:m])
		}
	}
	return got.Bytes()
}

func TestWriteOwnedSurvivesRetransmission(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("reno", "reno", nil)
	n.establish()

	pool, err := shm.NewHugePages(1, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	chunk, ok := pool.Alloc()
	if !ok {
		t.Fatal("alloc failed")
	}
	want := pool.Bytes(chunk)
	for i := range want {
		want[i] = byte(i * 31)
	}

	// Drop the first transmission of the chunk's first data segment, so
	// delivery depends on a retransmission served from the span.
	dropped := false
	n.drop = func(dir string, h *Header, payload []byte) bool {
		if dir == "a→b" && len(payload) > 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}

	got := ownedTransfer(t, n, pool, []shm.Chunk{chunk}, 5*time.Second)
	if !dropped {
		t.Fatal("test never dropped a segment")
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload corrupted across retransmission: got %d bytes", len(got))
	}
	// The receiver has everything, but the chunk must stay held until
	// the final ACK walks back to the sender; then it must be freed.
	n.loop.RunFor(100 * time.Millisecond)
	if rc := pool.RefCount(chunk); rc != 0 {
		t.Errorf("chunk still holds %d refs after full ACK", rc)
	}
	if pool.FreeCount() != pool.Chunks() {
		t.Errorf("pool: %d free of %d after full ACK", pool.FreeCount(), pool.Chunks())
	}
}

func TestWriteOwnedHeldWhileUnacked(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("reno", "reno", nil)
	n.establish()

	pool, err := shm.NewHugePages(1, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	chunk, _ := pool.Alloc()

	// Black-hole every data segment: the chunk's bytes can never be
	// ACKed, so the span must keep its reference through every
	// retransmission attempt.
	n.drop = func(dir string, h *Header, payload []byte) bool {
		return dir == "a→b" && len(payload) > 0
	}
	if !n.a.WriteOwned(pool.Bytes(chunk), pool, chunk.Offset) {
		t.Fatal("WriteOwned rejected a chunk that fits")
	}
	n.loop.RunFor(3 * time.Second)
	if rc := pool.RefCount(chunk); rc != 1 {
		t.Fatalf("chunk refcount = %d during retransmissions, want 1", rc)
	}

	// Teardown releases the span exactly once — the pool would panic on
	// a double free.
	n.a.Abort()
	n.b.Abort()
	n.loop.RunFor(time.Second)
	if pool.FreeCount() != pool.Chunks() {
		t.Errorf("pool: %d free of %d after abort", pool.FreeCount(), pool.Chunks())
	}
	if n := pool.LiveRefs(); n != 0 {
		t.Errorf("%d live refs after abort", n)
	}
}

func TestWriteOwnedUnderRandomLoss(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("cubic", "cubic", nil)
	n.establish()

	pool, err := shm.NewHugePages(1, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	var chunks []shm.Chunk
	var want bytes.Buffer
	for i := 0; i < 32; i++ {
		c, ok := pool.Alloc()
		if !ok {
			t.Fatal("pool exhausted")
		}
		b := pool.Bytes(c)
		for j := range b {
			b[j] = byte(i + j*7)
		}
		want.Write(b)
		chunks = append(chunks, c)
	}

	// 5% deterministic loss in both directions: data segments AND the
	// ACKs that would release spans.
	rng := sim.NewRNG(99)
	n.drop = func(dir string, h *Header, payload []byte) bool {
		return rng.Float64() < 0.05
	}

	got := ownedTransfer(t, n, pool, chunks, 30*time.Second)
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("payload corrupted under loss: got %d of %d bytes", len(got), want.Len())
	}
	n.drop = nil // let the final ACKs through cleanly
	n.loop.RunFor(time.Second)
	if pool.FreeCount() != pool.Chunks() {
		t.Errorf("pool: %d free of %d after lossy transfer", pool.FreeCount(), pool.Chunks())
	}
	if n := pool.LiveRefs(); n != 0 {
		t.Errorf("%d live refs after lossy transfer", n)
	}
}
