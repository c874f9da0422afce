package mgmt

import (
	"testing"
	"time"

	"netkernel/internal/sim"
)

func TestThroughputSLACompliance(t *testing.T) {
	loop := sim.NewLoop()
	var counter uint64
	sla := NewThroughputSLA(loop, "tenantA", 8e6 /* 8 Mbit/s */, 100*time.Millisecond, func() uint64 { return counter })
	sla.Start()
	// 5 windows at 10 Mbit/s (125 KB per 100 ms), then 5 at 4 Mbit/s.
	for i := 0; i < 5; i++ {
		counter += 125000
		loop.RunFor(100 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		counter += 50000
		loop.RunFor(100 * time.Millisecond)
	}
	if sla.Windows() < 9 {
		t.Fatalf("windows = %d", sla.Windows())
	}
	c := sla.Compliance()
	if c < 0.4 || c > 0.6 {
		t.Fatalf("compliance = %v, want ≈0.5", c)
	}
	if sla.MeanActiveBps() < 5e6 || sla.MeanActiveBps() > 9e6 {
		t.Fatalf("mean = %v", sla.MeanActiveBps())
	}
	if sla.String() == "" {
		t.Fatal("String empty")
	}
}

func TestThroughputSLAIdleWindowsIgnored(t *testing.T) {
	loop := sim.NewLoop()
	var counter uint64
	sla := NewThroughputSLA(loop, "idle", 1e9, time.Second, func() uint64 { return counter })
	sla.Start()
	loop.RunFor(10 * time.Second) // no traffic at all
	if sla.Compliance() != 1 {
		t.Fatalf("idle tenant compliance = %v, want 1 (no demand)", sla.Compliance())
	}
}

// Windows returns the number of completed windows.
func (s *ThroughputSLA) Windows() int { return len(s.achieved) }
