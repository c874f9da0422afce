package netkernel

import (
	"fmt"
	"time"

	"netkernel/internal/hypervisor"
	"netkernel/internal/mgmt"
	"netkernel/internal/pricing"
)

// Management-plane surface: the §5 centralized management and pricing
// capabilities, re-exported for library users.

type (
	// ThroughputSLA tracks achieved vs promised tenant throughput.
	ThroughputSLA = mgmt.ThroughputSLA

	// Migration is the record of one live NSM migration.
	Migration = hypervisor.Migration
	// MigrateOptions tunes a live migration (fault injection).
	MigrateOptions = hypervisor.MigrateOptions

	// Meter samples a tenant's NSM resource usage.
	Meter = pricing.Meter
	// Usage is a metered consumption record.
	Usage = pricing.Usage
	// PricingModel converts Usage into money.
	PricingModel = pricing.Model
	// InvoiceLine is one model's price for one usage.
	InvoiceLine = pricing.InvoiceLine
	// MicroUSD is integer money (millionths of a dollar).
	MicroUSD = pricing.MicroUSD
)

// NewVMThroughputSLA builds a tracker fed straight from the host
// telemetry registry: it samples the tenant's ServiceLib ingress
// counters ("vm<id>.r<n>.svc.data_in", summed across replicas) rather
// than a hand-fed closure.
func NewVMThroughputSLA(c *Cluster, h *Host, vm *VM, targetBps float64, window time.Duration) *ThroughputSLA {
	reg := h.Metrics
	id, replicas := vm.ID, len(vm.Services)
	return mgmt.NewThroughputSLA(c.Clock(), vm.Name, targetBps, window, func() uint64 {
		var total uint64
		for r := 0; r < replicas; r++ {
			total += reg.CounterValue(fmt.Sprintf("vm%d.r%d.svc.data_in", id, r))
		}
		return total
	})
}

// MeterNSM starts metering one VM's share of its NSM for billing. The
// samplers follow vm.NSM live, so metering survives a live migration:
// after a cutover they read the successor module's CPU and stack.
func MeterNSM(c *Cluster, vm *VM, slaBps float64) *Meter {
	nsm := vm.NSM
	svc := vm.Service
	return pricing.NewMeter(c.Clock(), nsm.Form.String(), nsm.CPU.Cores(), nsm.Profile.MemoryMB, slaBps,
		func() time.Duration { return vm.NSM.CPU.TotalBusy() },
		func() (uint64, uint64) { st := svc.Stats(); return uint64(st.DataIn), uint64(st.DataOut) },
		func() int { return vm.NSM.Stack.ConnCount() },
	)
}

// Invoice prices a usage under every supplied model.
func Invoice(u Usage, models ...PricingModel) []InvoiceLine { return pricing.Invoice(u, models...) }

// DefaultPricingModels returns the §5 pricing catalogue: per-instance,
// per-core, utilization-based, and SLA-based.
func DefaultPricingModels() []PricingModel { return pricing.DefaultModels() }
