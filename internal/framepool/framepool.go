// Package framepool is the packet-buffer pool shared by the stack and the
// simulated fabric: one buffer per Ethernet frame, drawn where the frame
// is built and returned where its life provably ends (DESIGN.md §15).
//
// Frames stay plain []byte everywhere — the pool recognises its own
// buffers by capacity — so nothing that handles a frame needs to know
// whether it was pooled. Releasing is an optimisation, never an
// obligation: a frame that is not Put is collected by the GC like any
// other slice, so a missed release point costs an allocation, not
// correctness. The converse is the one rule: after Put, or after handing
// a frame to something that consumes it (Stack.DeliverFrame,
// netsim.Port.Deliver, Link.Send), the caller must not touch the slice
// again.
package framepool

import (
	"fmt"
	"sync"
)

const (
	// Cap is the capacity of every pooled buffer: room for the largest
	// frame the system builds, 14 B Ethernet + a 1 500 B MTU = 1 514 B
	// (a full-MSS data segment; data segments carry no TCP options).
	// 1 536 is itself a Go allocator size class, so a buffer costs Cap
	// bytes of heap and no more. One class serves every frame: a second,
	// small one for ACKs was measured and saved nothing (DESIGN.md §15).
	Cap = 1536
	// maxFree bounds the free list (3 MiB of idle buffers at most). It
	// is a constant, not a knob: the list only needs to cover the frames
	// simultaneously in flight on the simulated fabric, and overflowing
	// it merely lets the surplus fall to the GC.
	maxFree = 2048
)

var pool struct {
	mu   sync.Mutex
	free [][]byte
	// gets and puts count pool-class buffers handed out and taken back;
	// their difference is what Live reports.
	gets, puts int64
	// poison is the test-only release check: see Poison.
	poison bool
	inFree map[*byte]struct{}
}

// Get returns a frame of length n. Its contents are unspecified: the
// caller writes every byte it sends. Frames longer than Cap are plain
// allocations that Put ignores.
func Get(n int) []byte {
	if n > Cap {
		return make([]byte, n)
	}
	pool.mu.Lock()
	pool.gets++
	var b []byte
	if last := len(pool.free) - 1; last >= 0 {
		b = pool.free[last]
		pool.free[last] = nil
		pool.free = pool.free[:last]
		if pool.poison {
			delete(pool.inFree, &b[0])
		}
	}
	pool.mu.Unlock()
	if b == nil {
		b = make([]byte, Cap)
	}
	return b[:n]
}

// Clone returns a pooled copy of f.
func Clone(f []byte) []byte {
	c := Get(len(f))
	copy(c, f)
	return c
}

// Put releases a frame. Only a slice that still starts at the buffer's
// first byte and carries the pool's capacity is taken back; anything else
// (a caller-allocated frame, an oversized one, a sub-slice) is left to
// the GC, so Put is safe to call on every frame that dies.
func Put(f []byte) {
	if cap(f) != Cap {
		return
	}
	f = f[:Cap]
	pool.mu.Lock()
	pool.puts++
	keep := len(pool.free) < maxFree // else the buffer falls to the GC
	if pool.poison {
		p := &f[0]
		if _, dup := pool.inFree[p]; dup {
			pool.mu.Unlock()
			panic(fmt.Sprintf("framepool: buffer %p released twice", p))
		}
		for i := range f {
			f[i] = poisonByte
		}
		if keep {
			pool.inFree[p] = struct{}{}
		}
	}
	if keep {
		pool.free = append(pool.free, f)
	}
	pool.mu.Unlock()
}

// Live returns how many pool-class frames have been handed out and not
// yet released. Frames left to the GC stay counted, so tests compare
// Live before and after a scenario that should release everything.
func Live() int64 {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return pool.gets - pool.puts
}

const poisonByte = 0xdb

// Poison switches the test-only lifetime check on or off: while on,
// every released buffer is overwritten before it can be reused, so a
// reader that kept a frame past its release sees garbage (checksums
// fail, byte-exact streams diverge), and releasing one buffer twice
// panics. It exists for tests; nothing else calls it.
func Poison(on bool) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	pool.poison = on
	pool.inFree = nil
	if on {
		pool.inFree = make(map[*byte]struct{}, len(pool.free))
		for _, b := range pool.free {
			pool.inFree[&b[0]] = struct{}{}
		}
	}
}
