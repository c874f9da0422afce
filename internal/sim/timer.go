package sim

import "time"

// A Handle names one callback scheduled with AfterFunc. It is a plain
// value: copying it is free and the zero Handle names nothing.
type Handle struct {
	loop *Loop
	seq  uint64
	slot int32
}

// Stop cancels the callback. It reports whether the callback was still
// pending: false means it already ran (or has begun running) or was
// already stopped.
func (h Handle) Stop() bool {
	return h.loop != nil && h.loop.cancel(h.slot, h.seq)
}

// Pending reports whether the callback is still waiting to run.
func (h Handle) Pending() bool {
	return h.loop != nil && h.loop.pending(h.slot, h.seq)
}

// An AfterFuncer schedules one-shot callbacks: a Clock, or a Lane.
type AfterFuncer interface {
	AfterFunc(d time.Duration, fn func()) Handle
}

// A Timer is a re-armable timer for a callback fixed at Init: a
// retransmission timeout, a delayed ACK, a pump kick. The owner embeds
// it, calls Init once and never copies it; arming it then costs no
// closure, and the callback itself is built once.
//
// Reset is exactly Stop followed by AfterFunc — the new arm draws its
// sequence number at the Reset call — so replacing a stored-handle
// timer with a Timer leaves same-instant ordering untouched.
type Timer struct {
	on AfterFuncer
	fn func()
	h  Handle
}

// Init binds the timer to its callback and to what schedules it: the
// clock, or a Lane shared by timers that are always armed for the same
// wait (TIME_WAIT), which then hold one heap entry between them.
func (t *Timer) Init(on AfterFuncer, fn func()) { t.on, t.fn = on, fn }

// Reset (re)arms the timer to fire d from now, replacing a pending arm.
func (t *Timer) Reset(d time.Duration) {
	t.h.Stop()
	t.h = t.on.AfterFunc(d, t.fn)
}

// Stop disarms the timer, reporting whether it was armed.
func (t *Timer) Stop() bool { return t.h.Stop() }

// Pending reports whether the timer is armed and has not begun firing.
func (t *Timer) Pending() bool { return t.h.Pending() }
