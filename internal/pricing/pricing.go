// Package pricing implements the §5 research-agenda item "Pricing
// model and accounting CPU and RAM": "One may charge tenants based on
// the number of NSM instances or number of cores, even CPU and memory
// utilization on average per instance used for example. One may also
// use SLA based pricing, based on for example the maximum number of
// concurrent connections supported, maximum throughput allowed, etc."
//
// A Meter samples one tenant's NSM attachment; Models convert the
// resulting Usage into money; an Invoice lays the alternatives side by
// side.
package pricing

import (
	"fmt"
	"time"

	"netkernel/internal/sim"
)

// MicroUSD is a millionth of a dollar; integer money keeps invoices
// deterministic.
type MicroUSD int64

func (m MicroUSD) String() string { return fmt.Sprintf("$%.6f", float64(m)/1e6) }

// USD converts dollars to MicroUSD.
func USD(d float64) MicroUSD { return MicroUSD(d * 1e6) }

// Usage is one tenant's resource consumption over a metering period.
type Usage struct {
	// Period is the metered wall (virtual) time.
	Period time.Duration
	// Form names the NSM realization ("vm", "container", …).
	Form string
	// Cores and MemoryMB are the provisioned reservation.
	Cores    int
	MemoryMB int
	// CPUBusy is the actually-consumed core time.
	CPUBusy time.Duration
	// BytesOut / BytesIn are tenant payload volumes through the NSM.
	BytesOut, BytesIn uint64
	// PeakConns is the high-water concurrent-connection mark.
	PeakConns int
	// SLATargetBps is the promised throughput floor (0 = best effort).
	SLATargetBps float64
}

// A Model prices a Usage.
type Model interface {
	Name() string
	Price(u Usage) MicroUSD
}

// PerInstance charges a flat rate per NSM instance-hour, scaled by the
// form's weight (a full VM costs more to run than a module).
type PerInstance struct {
	// HourlyByForm maps form name → instance-hour price; missing forms
	// use Default.
	HourlyByForm map[string]MicroUSD
	Default      MicroUSD
}

// Name implements Model.
func (PerInstance) Name() string { return "per-instance" }

// Price implements Model.
func (p PerInstance) Price(u Usage) MicroUSD {
	rate, ok := p.HourlyByForm[u.Form]
	if !ok {
		rate = p.Default
	}
	return MicroUSD(float64(rate) * u.Period.Hours())
}

// PerCore charges reserved cores and memory by the hour, whether used
// or not — classic reservation pricing.
type PerCore struct {
	CoreHour MicroUSD
	GBHour   MicroUSD
}

// Name implements Model.
func (PerCore) Name() string { return "per-core" }

// Price implements Model.
func (p PerCore) Price(u Usage) MicroUSD {
	cores := MicroUSD(float64(p.CoreHour) * float64(u.Cores) * u.Period.Hours())
	mem := MicroUSD(float64(p.GBHour) * float64(u.MemoryMB) / 1024 * u.Period.Hours())
	return cores + mem
}

// UtilizationBased charges only what was consumed: busy core-time and
// resident memory. This is the model the paper's efficiency argument
// enables — the provider can meter the stack because it runs the stack.
type UtilizationBased struct {
	BusyCoreHour MicroUSD
	GBHour       MicroUSD
}

// Name implements Model.
func (UtilizationBased) Name() string { return "utilization" }

// Price implements Model.
func (p UtilizationBased) Price(u Usage) MicroUSD {
	busy := MicroUSD(float64(p.BusyCoreHour) * u.CPUBusy.Hours())
	mem := MicroUSD(float64(p.GBHour) * float64(u.MemoryMB) / 1024 * u.Period.Hours())
	return busy + mem
}

// SLABased charges for the promised throughput floor plus egress
// volume — §5's "maximum throughput allowed" pricing.
type SLABased struct {
	// PerGbpsHour prices each promised Gbit/s of throughput SLA.
	PerGbpsHour MicroUSD
	// PerGBOut prices each GB of egress.
	PerGBOut MicroUSD
	// PerKConns prices each 1000 peak concurrent connections per hour.
	PerKConns MicroUSD
}

// Name implements Model.
func (SLABased) Name() string { return "sla" }

// Price implements Model.
func (p SLABased) Price(u Usage) MicroUSD {
	sla := MicroUSD(float64(p.PerGbpsHour) * u.SLATargetBps / 1e9 * u.Period.Hours())
	egress := MicroUSD(float64(p.PerGBOut) * float64(u.BytesOut) / 1e9)
	conns := MicroUSD(float64(p.PerKConns) * float64(u.PeakConns) / 1000 * u.Period.Hours())
	return sla + egress + conns
}

// Meter samples a tenant's NSM attachment over time. The closures
// decouple it from the hypervisor types: feed it the NSM CPU's busy
// counter, the ServiceLib byte counters, and a live-connection count.
type Meter struct {
	clock sim.Clock
	start sim.Time

	form     string
	cores    int
	memoryMB int
	slaBps   float64

	cpuBusy func() time.Duration
	bytes   func() (out, in uint64)
	conns   func() int

	baseBusy        time.Duration
	baseOut, baseIn uint64
	peakConns       int
	sampling        bool
}

// NewMeter starts metering at the current instant.
func NewMeter(clock sim.Clock, form string, cores, memoryMB int, slaBps float64,
	cpuBusy func() time.Duration, bytes func() (out, in uint64), conns func() int) *Meter {
	m := &Meter{
		clock: clock, start: clock.Now(),
		form: form, cores: cores, memoryMB: memoryMB, slaBps: slaBps,
		cpuBusy: cpuBusy, bytes: bytes, conns: conns,
	}
	m.baseBusy = cpuBusy()
	m.baseOut, m.baseIn = bytes()
	return m
}

// StartSampling begins periodic peak-connection sampling.
func (m *Meter) StartSampling(every time.Duration) {
	if m.sampling {
		return
	}
	m.sampling = true
	var tick func()
	tick = func() {
		if n := m.conns(); n > m.peakConns {
			m.peakConns = n
		}
		m.clock.AfterFunc(every, tick)
	}
	tick()
}

// Snapshot returns the usage accumulated since the meter started.
func (m *Meter) Snapshot() Usage {
	out, in := m.bytes()
	if n := m.conns(); n > m.peakConns {
		m.peakConns = n
	}
	return Usage{
		Period:       m.clock.Now().Sub(m.start),
		Form:         m.form,
		Cores:        m.cores,
		MemoryMB:     m.memoryMB,
		CPUBusy:      m.cpuBusy() - m.baseBusy,
		BytesOut:     out - m.baseOut,
		BytesIn:      in - m.baseIn,
		PeakConns:    m.peakConns,
		SLATargetBps: m.slaBps,
	}
}

// InvoiceLine is one model's price for one usage.
type InvoiceLine struct {
	Model  string
	Amount MicroUSD
}

// Invoice prices a usage under every supplied model, preserving order.
func Invoice(u Usage, models ...Model) []InvoiceLine {
	lines := make([]InvoiceLine, 0, len(models))
	for _, m := range models {
		lines = append(lines, InvoiceLine{Model: m.Name(), Amount: m.Price(u)})
	}
	return lines
}

// DefaultModels returns a representative catalogue (rates loosely
// shaped on public-cloud list prices).
func DefaultModels() []Model {
	return []Model{
		PerInstance{
			HourlyByForm: map[string]MicroUSD{
				"vm": USD(0.0475), "unikernel": USD(0.02),
				"container": USD(0.01), "module": USD(0.005),
			},
			Default: USD(0.0475),
		},
		PerCore{CoreHour: USD(0.04), GBHour: USD(0.005)},
		UtilizationBased{BusyCoreHour: USD(0.08), GBHour: USD(0.005)},
		SLABased{PerGbpsHour: USD(0.01), PerGBOut: USD(0.05), PerKConns: USD(0.002)},
	}
}
