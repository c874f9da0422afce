package framepool

import (
	"bytes"
	"sync"
	"testing"

	"netkernel/internal/proto/ethernet"
)

// drain empties the free list so a test starts from a known pool.
func drain() {
	pool.mu.Lock()
	pool.free = nil
	pool.mu.Unlock()
}

// Every frame the stack builds fits one pool buffer: the largest is a
// full-MTU IPv4 packet behind an Ethernet header.
func TestCapHoldsLargestFrame(t *testing.T) {
	if Cap < ethernet.HeaderLen+ethernet.MTU {
		t.Fatalf("Cap %d is smaller than a %d-byte frame", Cap, ethernet.HeaderLen+ethernet.MTU)
	}
}

func TestGetPutRecyclesPoolFrames(t *testing.T) {
	drain()
	live := Live()
	f := Get(1514)
	if len(f) != 1514 || cap(f) != Cap {
		t.Fatalf("Get(1514): len %d cap %d", len(f), cap(f))
	}
	if Live()-live != 1 {
		t.Fatalf("Live moved by %d after one Get", Live()-live)
	}
	first := &f[0]
	Put(f)
	if Live() != live {
		t.Fatalf("Live %d after the Put, want %d", Live(), live)
	}
	g := Get(64)
	if &g[0] != first || len(g) != 64 {
		t.Fatal("released buffer was not the next one handed out")
	}
	Put(g)

	c := Clone([]byte("frame bytes"))
	if !bytes.Equal(c, []byte("frame bytes")) || cap(c) != Cap {
		t.Fatalf("Clone = %q, cap %d", c, cap(c))
	}
	Put(c)
}

// Put takes back only what Get handed out: oversized frames, frames a
// caller allocated, and sub-slices that no longer start at the buffer's
// first byte are left to the GC and never counted.
func TestPutIgnoresForeignFrames(t *testing.T) {
	drain()
	live := Live()
	big := Get(Cap + 1)
	if len(big) != Cap+1 || Live() != live {
		t.Fatalf("oversized Get: len %d, Live moved by %d", len(big), Live()-live)
	}
	Put(big)
	Put(make([]byte, 1514))
	Put(nil)
	f := Get(100)
	Put(f[14:]) // capacity no longer the pool's: ignored, f stays out
	if n := len(pool.free); n != 0 {
		t.Fatalf("%d foreign buffers entered the free list", n)
	}
	if Live()-live != 1 {
		t.Fatalf("Live moved by %d, want 1 (the frame whose sub-slice was refused)", Live()-live)
	}
	Put(f)
}

func TestFreeListIsBounded(t *testing.T) {
	drain()
	live := Live()
	held := make([][]byte, maxFree+10)
	for i := range held {
		held[i] = Get(60)
	}
	for _, f := range held {
		Put(f)
	}
	if len(pool.free) != maxFree {
		t.Fatalf("free list holds %d buffers, bound is %d", len(pool.free), maxFree)
	}
	if Live() != live {
		t.Fatalf("Live %d, want %d: a buffer dropped past the bound still counts as released", Live(), live)
	}
	drain()
}

func TestPoisonOverwritesAndCatchesDoubleRelease(t *testing.T) {
	drain()
	Poison(true)
	defer Poison(false)
	f := Get(100)
	for i := range f {
		f[i] = 0x11
	}
	stale := f
	Put(f)
	for i, b := range stale[:cap(stale)] {
		if b != poisonByte {
			t.Fatalf("byte %d of a released buffer reads %#x, want the poison", i, b)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second release of one buffer did not panic")
			}
		}()
		Put(stale)
	}()
	// Out and back in again is not a double release.
	g := Get(10)
	Put(g)
}

// The pool is shared by every simulated host in the process, and under a
// wall-clock domain those run on their own goroutines.
func TestConcurrentGetPut(t *testing.T) {
	drain()
	live := Live()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				f := Get(64 + i%1400)
				f[0], f[len(f)-1] = byte(w), byte(i)
				c := Clone(f)
				if c[0] != byte(w) || c[len(c)-1] != byte(i) {
					t.Error("frame changed under its owner")
				}
				Put(f)
				Put(c)
			}
		}(w)
	}
	wg.Wait()
	if Live() != live {
		t.Fatalf("Live %d after every frame was released, want %d", Live(), live)
	}
}

func TestAllocsGetPut(t *testing.T) {
	Put(Get(1514))
	if n := testing.AllocsPerRun(100, func() { Put(Get(1514)) }); n != 0 {
		t.Errorf("Get+Put: %v allocs, want 0", n)
	}
}

func BenchmarkGetPut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Put(Get(1514))
	}
}
