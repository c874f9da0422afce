package netsim

import (
	"time"

	"netkernel/internal/sim"
)

// CPU models per-core packet-processing capacity. Each core is a FIFO
// server: work dispatched to a core starts when the core frees up and
// completes after its cost. This is what makes Figure 4's shape emerge —
// a single flow is pinned to one core and tops out at that core's
// processing rate, while two or more flows on different cores saturate
// the 40 GbE line.
//
// Busy time is tracked per core, feeding the §5 accounting and pricing
// models ("charge tenants based on … CPU and memory utilization").
type CPU struct {
	clock sim.Clock
	cores []coreState
}

type coreState struct {
	busyUntil sim.Time
	busyTotal time.Duration
	jobs      uint64
	// done is where the core's work completes: busyUntil only moves
	// forward, so completions come due in dispatch order and however
	// many jobs wait on the core, the event loop holds one entry for it.
	done sim.Lane
}

// NewCPU builds a CPU with n cores.
func NewCPU(clock sim.Clock, n int) *CPU {
	if n <= 0 {
		n = 1
	}
	c := &CPU{clock: clock, cores: make([]coreState, n)}
	for i := range c.cores {
		c.cores[i].done.Init(clock)
	}
	return c
}

// Cores returns the core count.
func (c *CPU) Cores() int { return len(c.cores) }

// Dispatch queues work of the given cost on a core and runs fn when the
// work completes. Core indexes wrap, so callers can pass a flow hash
// directly (RSS-style steering). Zero-cost work still respects FIFO
// order. Must be called from the clock's executor.
func (c *CPU) Dispatch(core int, cost time.Duration, fn func()) {
	if s, wait := c.charge(core, cost); fn != nil {
		s.done.AfterFunc(wait, fn)
	}
}

// DispatchFrame is Dispatch for per-frame work: when the work completes
// it runs h.HandleFrame(frame, arg), with no closure built.
func (c *CPU) DispatchFrame(core int, cost time.Duration, h sim.FrameHandler, frame []byte, arg uint64) {
	s, wait := c.charge(core, cost)
	s.done.AfterFrame(wait, h, frame, arg)
}

// charge books cost on a core and returns the core and how long from
// now until the work completes.
func (c *CPU) charge(core int, cost time.Duration) (*coreState, time.Duration) {
	if cost < 0 {
		cost = 0
	}
	s := &c.cores[core%len(c.cores)]
	now := c.clock.Now()
	start := s.busyUntil
	if start < now {
		start = now
	}
	done := start.Add(cost)
	s.busyUntil = done
	s.busyTotal += cost
	s.jobs++
	return s, done.Sub(now)
}

// BusyTime returns the cumulative busy time of one core.
func (c *CPU) BusyTime(core int) time.Duration {
	return c.cores[core%len(c.cores)].busyTotal
}

// TotalBusy returns the cumulative busy time across all cores.
func (c *CPU) TotalBusy() time.Duration {
	var t time.Duration
	for i := range c.cores {
		t += c.cores[i].busyTotal
	}
	return t
}
