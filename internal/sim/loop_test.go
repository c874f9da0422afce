package sim

import (
	"testing"
	"time"
)

func TestLoopOrdering(t *testing.T) {
	l := NewLoop()
	var got []int
	l.AfterFunc(3*time.Millisecond, func() { got = append(got, 3) })
	l.AfterFunc(1*time.Millisecond, func() { got = append(got, 1) })
	l.AfterFunc(2*time.Millisecond, func() { got = append(got, 2) })
	l.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if l.Now() != Time(3*time.Millisecond) {
		t.Fatalf("Now = %v, want 3ms", l.Now())
	}
}

func TestLoopSameInstantFIFO(t *testing.T) {
	l := NewLoop()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.AfterFunc(time.Millisecond, func() { got = append(got, i) })
	}
	l.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want FIFO", got)
		}
	}
}

// A callback posted from a callback with zero delay runs at the
// current instant.
func TestLoopPostRunsAtCurrentInstant(t *testing.T) {
	l := NewLoop()
	var at Time = -1
	l.AfterFunc(5*time.Millisecond, func() {
		l.AfterFunc(0, func() { at = l.Now() })
	})
	l.Run()
	if at != Time(5*time.Millisecond) {
		t.Fatalf("posted callback ran at %v, want 5ms", at)
	}
}

func TestLoopTimerStop(t *testing.T) {
	l := NewLoop()
	fired := false
	tm := l.AfterFunc(time.Millisecond, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	l.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestLoopStopAfterFire(t *testing.T) {
	l := NewLoop()
	tm := l.AfterFunc(time.Millisecond, func() {})
	l.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should report false")
	}
}

// A stale Timer handle whose event struct was recycled must not cancel the
// new occupant.
func TestLoopStaleTimerHandle(t *testing.T) {
	l := NewLoop()
	stale := l.AfterFunc(time.Millisecond, func() {})
	l.Run() // fires; event recycled to free list

	fired := false
	l.AfterFunc(time.Millisecond, func() { fired = true }) // reuses struct
	if stale.Stop() {
		t.Fatal("stale handle Stop reported true")
	}
	l.Run()
	if !fired {
		t.Fatal("stale handle cancelled an unrelated event")
	}
}

func TestLoopRunUntil(t *testing.T) {
	l := NewLoop()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 10 * time.Millisecond} {
		d := d
		l.AfterFunc(d, func() { fired = append(fired, d) })
	}
	l.RunUntil(Time(5 * time.Millisecond))
	if len(fired) != 2 {
		t.Fatalf("fired %v, want exactly the first two", fired)
	}
	if l.Now() != Time(5*time.Millisecond) {
		t.Fatalf("Now = %v, want 5ms", l.Now())
	}
	l.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %v after Run, want all three", fired)
	}
}

// Regression: cancelled timers sitting at the top of the heap must not
// let a time-bounded run execute events beyond its bound. (TCP rearms
// its RTO on every segment, so the heap front is usually a pile of
// stopped timers; the original RunUntil discarded them via Step, which
// then ran the next live event even if it lay past the bound.)
func TestLoopRunUntilSkipsStoppedWithoutOvershoot(t *testing.T) {
	l := NewLoop()
	for i := 0; i < 100; i++ {
		l.AfterFunc(time.Duration(i)*time.Microsecond, func() {}).Stop()
	}
	ran := false
	l.AfterFunc(10*time.Millisecond, func() { ran = true })
	l.RunFor(time.Millisecond)
	if ran {
		t.Fatal("RunFor executed an event beyond its bound")
	}
	if l.Now() != Time(time.Millisecond) {
		t.Fatalf("Now = %v, want exactly 1ms", l.Now())
	}
	l.RunFor(10 * time.Millisecond)
	if !ran {
		t.Fatal("the live event never ran")
	}
}

func TestLoopRunFor(t *testing.T) {
	l := NewLoop()
	l.RunFor(time.Second)
	l.RunFor(time.Second)
	if l.Now() != Time(2*time.Second) {
		t.Fatalf("Now = %v, want 2s", l.Now())
	}
}

func TestLoopNegativeDelayClamped(t *testing.T) {
	l := NewLoop()
	l.RunFor(time.Second)
	ran := false
	l.AfterFunc(-time.Hour, func() { ran = true })
	l.Run()
	if !ran {
		t.Fatal("negative-delay callback did not run")
	}
	if l.Now() != Time(time.Second) {
		t.Fatalf("negative delay moved time to %v", l.Now())
	}
}

func TestLoopNestedScheduling(t *testing.T) {
	l := NewLoop()
	depth := 0
	var rec func()
	rec = func() {
		depth++
		if depth < 100 {
			l.AfterFunc(time.Microsecond, rec)
		}
	}
	l.AfterFunc(0, rec)
	l.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if l.Now() != Time(99*time.Microsecond) {
		t.Fatalf("Now = %v, want 99µs", l.Now())
	}
}

func TestLoopProcessedCount(t *testing.T) {
	l := NewLoop()
	for i := 0; i < 7; i++ {
		l.AfterFunc(time.Duration(i), func() {})
	}
	tm := l.AfterFunc(time.Hour, func() {})
	tm.Stop()
	l.Run()
	if l.Processed() != 7 {
		t.Fatalf("Processed = %d, want 7", l.Processed())
	}
}

func BenchmarkLoopScheduleAndRun(b *testing.B) {
	l := NewLoop()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.AfterFunc(time.Nanosecond, fn)
		l.Step()
	}
}
