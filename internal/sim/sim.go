// Package sim provides the time substrate shared by every NetKernel
// component: a Clock interface, a deterministic discrete-event loop that
// implements it in virtual time, a wall-clock implementation, and a
// deterministic random number generator.
//
// All protocol code (the TCP/IP stack, the CoreEngine, the simulated
// network fabric) is written against Clock, so the same state machines run
// unchanged in the virtual-time domain (benchmark reproduction,
// deterministic tests) and in the wall-clock domain (interactive use).
//
// Callbacks scheduled on a Clock are serialized: no two callbacks of the
// same Clock ever run concurrently, so state guarded by a Clock needs no
// further locking.
package sim

import "time"

// Time is an instant in nanoseconds since the clock's epoch (the start of
// the simulation or the creation of the wall clock).
type Time int64

// Duration converts a Time to the time.Duration since the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the instant as a duration since the epoch.
func (t Time) String() string { return time.Duration(t).String() }

// A FrameHandler receives a per-frame event scheduled with AfterFrame.
// The link, switch and CPU hops a frame crosses schedule through it
// with their own pointer as the handler, so a hop builds no closure;
// arg is the handler's to define.
type FrameHandler interface {
	HandleFrame(frame []byte, arg uint64)
}

// Clock is the time source and serialized executor every NetKernel
// component runs on.
type Clock interface {
	// Now returns the current instant.
	Now() Time

	// AfterFunc schedules fn to run on the clock's executor once d has
	// elapsed. Non-positive d schedules fn as soon as possible, after
	// callbacks already pending for the current instant.
	AfterFunc(d time.Duration, fn func()) Handle

	// AfterFrame schedules h.HandleFrame(frame, arg) the way AfterFunc
	// schedules fn.
	AfterFrame(d time.Duration, h FrameHandler, frame []byte, arg uint64)

	// Post schedules fn to run on the clock's executor as soon as
	// possible. It is safe to call from any goroutine.
	Post(fn func())
}
