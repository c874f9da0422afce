// Package mgmt provides the centralized management plane the paper
// argues NSaaS enables (§5 "Centralized management and control"):
// since the provider now owns the stack, it can hold each tenant to a
// promised rate. ThroughputSLA tracks each tenant's achieved against its
// promised throughput, the basis for §2.1's "meaningful SLAs". Moving a
// module under live traffic is the hypervisor's Host.MigrateNSM.
package mgmt

import (
	"fmt"
	"time"

	"netkernel/internal/sim"
)

// ThroughputSLA tracks a tenant's achieved throughput against a
// promised floor, sampled over fixed windows. The provider can only
// offer this because it owns the stack (§2.1: "providers can now offer
// meaningful SLAs to tenants and charge them accordingly").
type ThroughputSLA struct {
	clock     sim.Clock
	name      string
	targetBps float64
	window    time.Duration
	sample    func() uint64 // cumulative bytes

	last     uint64
	achieved []float64 // bps per window
}

// NewThroughputSLA builds a tracker. sample must return a cumulative
// byte counter (e.g. the tenant's ServiceLib DataIn).
func NewThroughputSLA(clock sim.Clock, name string, targetBps float64, window time.Duration, sample func() uint64) *ThroughputSLA {
	if window <= 0 {
		window = time.Second
	}
	return &ThroughputSLA{clock: clock, name: name, targetBps: targetBps, window: window, sample: sample}
}

// Start begins sampling, for as long as the clock runs.
func (s *ThroughputSLA) Start() {
	s.last = s.sample()
	s.tick()
}

func (s *ThroughputSLA) tick() {
	s.clock.AfterFunc(s.window, func() {
		cur := s.sample()
		bps := float64(cur-s.last) * 8 / s.window.Seconds()
		s.last = cur
		s.achieved = append(s.achieved, bps)
		s.tick()
	})
}

// Compliance returns the fraction of windows meeting the target,
// ignoring idle windows (no traffic means no demand, not a violation).
func (s *ThroughputSLA) Compliance() float64 {
	active, met := 0, 0
	for _, bps := range s.achieved {
		if bps <= 0 {
			continue
		}
		active++
		if bps >= s.targetBps {
			met++
		}
	}
	if active == 0 {
		return 1
	}
	return float64(met) / float64(active)
}

// MeanActiveBps returns the mean achieved rate over active windows.
func (s *ThroughputSLA) MeanActiveBps() float64 {
	sum, n := 0.0, 0
	for _, bps := range s.achieved {
		if bps > 0 {
			sum += bps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String summarizes the tracker.
func (s *ThroughputSLA) String() string {
	return fmt.Sprintf("sla %s: target %.1f Mbit/s, mean %.1f Mbit/s, compliance %.0f%%",
		s.name, s.targetBps/1e6, s.MeanActiveBps()/1e6, s.Compliance()*100)
}
