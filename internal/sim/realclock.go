package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// RealClock implements Clock against the wall clock. Callbacks are
// serialized by an internal mutex, mirroring the single-threaded execution
// guarantee of Loop, so stack state needs no extra locking in either
// domain.
type RealClock struct {
	mu    sync.Mutex
	start time.Time
}

// NewRealClock returns a wall clock whose epoch is now.
func NewRealClock() *RealClock {
	return &RealClock{start: time.Now()}
}

// Now returns the wall-clock time since the epoch.
func (c *RealClock) Now() Time { return Time(time.Since(c.start)) }

// AfterFunc schedules fn after d of wall-clock time.
//
// Stop must cancel as deterministically here as it does in the Loop
// domain, where a stopped event leaves the heap before the scheduler
// reaches it. time.Timer.Stop alone cannot give that: once the runtime
// timer fires, its goroutine may already be blocked on c.mu while the
// serialized callback that is *currently running* decides to Stop it —
// e.g. an ACK canceling a retransmission timer. Without a guard the
// stale callback then runs against state that no longer expects it (a
// spurious RTO fires, backoff doubles, and a healthy connection can be
// torn down). The done flag closes that window: whichever of Stop and
// the callback sets it first wins (the caller of Stop holds c.mu, the
// late callback acquires c.mu before looking), so a stopped timer never
// runs.
func (c *RealClock) AfterFunc(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	rt := new(realTimer)
	rt.t = time.AfterFunc(d, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if rt.done.Swap(true) {
			return
		}
		fn()
	})
	return Handle{real: rt}
}

// AfterFrame is AfterFunc with a closure over the frame: the wall-clock
// domain pays an allocation per hop, the Loop does not.
func (c *RealClock) AfterFrame(d time.Duration, h FrameHandler, frame []byte, arg uint64) {
	c.AfterFunc(d, func() { h.HandleFrame(frame, arg) })
}

// Post runs fn on a fresh goroutine under the clock's serialization lock.
func (c *RealClock) Post(fn func()) {
	go func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		fn()
	}()
}

// Locked runs fn under the clock's serialization lock from the calling
// goroutine, letting external code interact safely with state owned by
// the clock's callbacks.
func (c *RealClock) Locked(fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fn()
}

// realTimer is one AfterFunc on the wall clock. done is set by Stop or
// by the callback starting, whichever comes first.
type realTimer struct {
	t    *time.Timer
	done atomic.Bool
}

func (rt *realTimer) stop() bool {
	pending := !rt.done.Swap(true)
	rt.t.Stop()
	return pending
}
