package sched

import (
	"testing"
	"time"

	"netkernel/internal/sim"
)

func TestTokenBucketEnforcesRate(t *testing.T) {
	loop := sim.NewLoop()
	tb := NewTokenBucket(loop, 1e6, 10000) // 1 MB/s, 10 KB burst

	// Burst drains immediately.
	granted := 0
	for {
		ok, _ := tb.Take(1000)
		if !ok {
			break
		}
		granted += 1000
	}
	if granted != 10000 {
		t.Fatalf("burst granted %d, want 10000", granted)
	}

	// Sustained rate: taking in 10 ms steps for 100 ms grants ≈100 KB.
	granted = 0
	for step := 0; step < 10; step++ {
		loop.RunFor(10 * time.Millisecond)
		for {
			ok, _ := tb.Take(1000)
			if !ok {
				break
			}
			granted += 1000
		}
	}
	if granted < 95000 || granted > 105000 {
		t.Fatalf("sustained 100ms granted %d, want ≈100000", granted)
	}
}

func TestTokenBucketRetryHint(t *testing.T) {
	loop := sim.NewLoop()
	tb := NewTokenBucket(loop, 1e6, 1000)
	tb.Take(1000) // drain the burst
	ok, retry := tb.Take(800)
	if ok {
		t.Fatal("over-budget take granted")
	}
	// 800 bytes at 1 MB/s = 0.8 ms.
	if retry < 700*time.Microsecond || retry > 900*time.Microsecond {
		t.Fatalf("retry hint %v, want ≈0.8ms", retry)
	}
	loop.RunFor(retry)
	if ok, _ := tb.Take(800); !ok {
		t.Fatal("take still denied after the hinted wait")
	}
}

func TestTokenBucketBurstCap(t *testing.T) {
	loop := sim.NewLoop()
	tb := NewTokenBucket(loop, 1e6, 1000)
	loop.RunFor(time.Hour) // tokens must not accumulate past burst
	if ok, _ := tb.Take(2000); ok {
		t.Fatal("bucket exceeded its burst depth")
	}
	if ok, _ := tb.Take(1000); !ok {
		t.Fatal("full burst unavailable")
	}
}
