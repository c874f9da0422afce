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

func TestUnlimitedShaper(t *testing.T) {
	var s Shaper = Unlimited{}
	for i := 0; i < 100; i++ {
		if ok, _ := s.Take(1 << 30); !ok {
			t.Fatal("Unlimited denied")
		}
	}
}

func TestDRRWeightedShares(t *testing.T) {
	d := NewDRR(1500)
	heavy := d.AddFlow(2)
	light := d.AddFlow(1)
	for i := 0; i < 1000; i++ {
		heavy.Enqueue("h", 1500)
		light.Enqueue("l", 1500)
	}
	for i := 0; i < 900; i++ {
		if _, ok := d.Next(); !ok {
			t.Fatal("scheduler dried up early")
		}
	}
	ratio := float64(heavy.Served()) / float64(light.Served())
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("service ratio %.2f, want ≈2.0", ratio)
	}
}

func TestDRRUnevenItemSizes(t *testing.T) {
	// Byte fairness, not packet fairness: a flow of small packets gets
	// the same byte share as a flow of large ones.
	d := NewDRR(1500)
	small := d.AddFlow(1)
	big := d.AddFlow(1)
	for i := 0; i < 3000; i++ {
		small.Enqueue("s", 100)
	}
	for i := 0; i < 200; i++ {
		big.Enqueue("b", 1500)
	}
	for i := 0; i < 2000; i++ {
		if _, ok := d.Next(); !ok {
			break
		}
	}
	sm, bg := float64(small.Served()), float64(big.Served())
	if sm/bg < 0.8 || sm/bg > 1.25 {
		t.Fatalf("byte shares small=%v big=%v, want ≈equal", sm, bg)
	}
}

func TestDRREmptyAndDrain(t *testing.T) {
	d := NewDRR(0)
	if _, ok := d.Next(); ok {
		t.Fatal("empty scheduler served something")
	}
	f := d.AddFlow(1)
	f.Enqueue(42, 500)
	v, ok := d.Next()
	if !ok || v.(int) != 42 {
		t.Fatalf("Next = %v, %v", v, ok)
	}
	if _, ok := d.Next(); ok {
		t.Fatal("drained scheduler served something")
	}
	if f.Len() != 0 {
		t.Fatal("flow length wrong")
	}
}

func TestDRROversizeItem(t *testing.T) {
	// An item bigger than one quantum must still be served (after
	// enough rounds), not wedge the scheduler.
	d := NewDRR(100)
	a := d.AddFlow(1)
	b := d.AddFlow(1)
	a.Enqueue("big", 1000)
	b.Enqueue("small", 50)
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		v, ok := d.Next()
		if !ok {
			t.Fatal("scheduler wedged on oversize item")
		}
		seen[v.(string)] = true
	}
	if !seen["big"] || !seen["small"] {
		t.Fatalf("served %v", seen)
	}
}
