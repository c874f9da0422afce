package pricing

import (
	"testing"
	"time"

	"netkernel/internal/sim"
)

func sampleUsage() Usage {
	return Usage{
		Period:       2 * time.Hour,
		Form:         "vm",
		Cores:        2,
		MemoryMB:     1024,
		CPUBusy:      30 * time.Minute,
		BytesOut:     10e9,
		BytesIn:      2e9,
		PeakConns:    5000,
		SLATargetBps: 2e9,
	}
}

func TestPerInstancePricing(t *testing.T) {
	m := PerInstance{
		HourlyByForm: map[string]MicroUSD{"vm": USD(0.05), "module": USD(0.005)},
		Default:      USD(0.03),
	}
	u := sampleUsage()
	if got := m.Price(u); got != USD(0.10) {
		t.Fatalf("vm 2h = %v, want $0.10", got)
	}
	u.Form = "module"
	if got := m.Price(u); got != USD(0.01) {
		t.Fatalf("module 2h = %v", got)
	}
	u.Form = "exotic"
	if got := m.Price(u); got != USD(0.06) {
		t.Fatalf("default 2h = %v", got)
	}
}

func TestPerCorePricing(t *testing.T) {
	m := PerCore{CoreHour: USD(0.04), GBHour: USD(0.01)}
	// 2 cores × 2 h × 0.04 + 1 GB × 2 h × 0.01 = 0.16 + 0.02.
	if got := m.Price(sampleUsage()); got != USD(0.18) {
		t.Fatalf("per-core = %v, want $0.18", got)
	}
}

func TestUtilizationCheaperWhenIdle(t *testing.T) {
	util := UtilizationBased{BusyCoreHour: USD(0.08), GBHour: USD(0.005)}
	reserved := PerCore{CoreHour: USD(0.04), GBHour: USD(0.005)}
	u := sampleUsage() // 30 min busy over a 2 h, 2-core reservation
	if util.Price(u) >= reserved.Price(u) {
		t.Fatalf("idle tenant should be cheaper on utilization pricing: %v vs %v",
			util.Price(u), reserved.Price(u))
	}
	// A fully-busy tenant flips the comparison.
	u.CPUBusy = 4 * time.Hour // both cores pegged
	if util.Price(u) <= reserved.Price(u) {
		t.Fatal("pegged tenant should be cheaper on reservations")
	}
}

func TestSLABasedPricing(t *testing.T) {
	m := SLABased{PerGbpsHour: USD(0.01), PerGBOut: USD(0.05), PerKConns: USD(0.002)}
	u := sampleUsage()
	// 2 Gbit/s × 2 h × 0.01 + 10 GB × 0.05 + 5k conns × 2 h × 0.002
	want := USD(0.04) + USD(0.50) + USD(0.02)
	if got := m.Price(u); got != want {
		t.Fatalf("sla = %v, want %v", got, want)
	}
}

func TestInvoiceCoversAllModels(t *testing.T) {
	lines := Invoice(sampleUsage(), DefaultModels()...)
	if len(lines) != 4 {
		t.Fatalf("%d lines", len(lines))
	}
	names := map[string]bool{}
	for _, l := range lines {
		names[l.Model] = true
		if l.Amount <= 0 {
			t.Fatalf("line %s priced %v", l.Model, l.Amount)
		}
	}
	for _, want := range []string{"per-instance", "per-core", "utilization", "sla"} {
		if !names[want] {
			t.Fatalf("missing model %s", want)
		}
	}
}

func TestMeterAccumulates(t *testing.T) {
	loop := sim.NewLoop()
	var busy time.Duration
	var out, in uint64
	conns := 0
	m := NewMeter(loop, "container", 1, 128, 1e9,
		func() time.Duration { return busy },
		func() (uint64, uint64) { return out, in },
		func() int { return conns },
	)
	m.StartSampling(100 * time.Millisecond)

	busy = 10 * time.Minute
	out, in = 5e9, 1e9
	conns = 300
	loop.RunFor(time.Second)
	conns = 100 // dropped after the peak
	loop.RunFor(time.Second)

	u := m.Snapshot()
	if u.Period != 2*time.Second {
		t.Fatalf("Period = %v", u.Period)
	}
	if u.CPUBusy != 10*time.Minute || u.BytesOut != 5e9 || u.BytesIn != 1e9 {
		t.Fatalf("usage %+v", u)
	}
	if u.PeakConns != 300 {
		t.Fatalf("PeakConns = %d, want the 300 high-water mark", u.PeakConns)
	}
	if u.Form != "container" || u.Cores != 1 || u.MemoryMB != 128 {
		t.Fatalf("identity fields %+v", u)
	}
}

func TestMeterBaselinesExistingCounters(t *testing.T) {
	loop := sim.NewLoop()
	busy := time.Hour // pre-existing consumption
	out := uint64(7e9)
	m := NewMeter(loop, "vm", 1, 1024, 0,
		func() time.Duration { return busy },
		func() (uint64, uint64) { return out, 0 },
		func() int { return 0 },
	)
	busy += time.Minute
	out += 1000
	u := m.Snapshot()
	if u.CPUBusy != time.Minute || u.BytesOut != 1000 {
		t.Fatalf("meter did not baseline: %+v", u)
	}
}

func TestMoneyFormatting(t *testing.T) {
	if USD(1.5).String() != "$1.500000" {
		t.Fatalf("got %q", USD(1.5).String())
	}
}
