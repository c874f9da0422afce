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
	// PingMesh is an all-pairs ICMP prober with failure detection
	// (Pingmesh-style, §5 "Centralized management and control").
	PingMesh = mgmt.Mesh
	// MeshNode is one probe endpoint.
	MeshNode = mgmt.MeshNode
	// MeshConfig shapes the prober.
	MeshConfig = mgmt.MeshConfig
	// PathReport summarizes one probed path.
	PathReport = mgmt.PathReport
	// ThroughputSLA tracks achieved vs promised tenant throughput.
	ThroughputSLA = mgmt.ThroughputSLA

	// Migration is the record of one live NSM migration.
	Migration = hypervisor.Migration
	// MigrateOptions tunes a live migration (fault injection).
	MigrateOptions = hypervisor.MigrateOptions
	// RollingUpgrade migrates a host's NSMs one module at a time.
	RollingUpgrade = mgmt.RollingUpgrade
	// UpgradePlan decides, per module, whether and how to migrate it.
	UpgradePlan = mgmt.UpgradePlan

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
	// MigrationEvent is the billable shape of one live migration.
	MigrationEvent = pricing.MigrationEvent
	// MigrationPricer prices migration events.
	MigrationPricer = pricing.MigrationPricer
)

// MigrateVM live-migrates the NSM serving vm onto a freshly booted
// module built from spec — every tenant multiplexed onto that module
// moves with it, no connection is lost, and the guest observes only a
// bounded stall. spec.CC different from the module's hot-swaps every
// migrated flow's congestion control mid-stream. done, if non-nil,
// fires when the cutover (or its abort) completes.
func MigrateVM(h *Host, vm *VM, spec NSMSpec, done func(*Migration)) (*Migration, error) {
	return h.MigrateNSM(vm.NSM, spec, MigrateOptions{}, done)
}

// NewRollingUpgrade builds a driver that migrates every NSM on h, one
// module at a time, billing each move through pricer.
func NewRollingUpgrade(h *Host, plan UpgradePlan, opts MigrateOptions, pricer MigrationPricer) *RollingUpgrade {
	return mgmt.NewRollingUpgrade(h, plan, opts, pricer)
}

// ConsolidateNSMs builds a rolling upgrade that packs every module
// billing higher than target (under rates) onto the target form.
func ConsolidateNSMs(h *Host, target NSMForm, rates pricing.PerInstance, opts MigrateOptions, pricer MigrationPricer) *RollingUpgrade {
	return mgmt.Consolidate(h, target, rates, opts, pricer)
}

// DefaultMigrationPricer returns representative migration rates.
func DefaultMigrationPricer() MigrationPricer { return pricing.DefaultMigrationPricer() }

// NewPingMesh builds a prober over the given nodes.
func NewPingMesh(cfg MeshConfig, nodes []MeshNode) *PingMesh { return mgmt.NewMesh(cfg, nodes) }

// NewThroughputSLA builds a throughput-SLA tracker; sample must return
// a cumulative byte counter.
func NewThroughputSLA(c *Cluster, name string, targetBps float64, window time.Duration, sample func() uint64) *ThroughputSLA {
	return mgmt.NewThroughputSLA(c.Clock(), name, targetBps, window, sample)
}

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
		func() (uint64, uint64) { st := svc.Stats(); return st.DataIn, st.DataOut },
		func() int { return vm.NSM.Stack.ConnCount() },
	)
}

// Invoice prices a usage under every supplied model.
func Invoice(u Usage, models ...PricingModel) []InvoiceLine { return pricing.Invoice(u, models...) }

// DefaultPricingModels returns the §5 pricing catalogue: per-instance,
// per-core, utilization-based, and SLA-based.
func DefaultPricingModels() []PricingModel { return pricing.DefaultModels() }
