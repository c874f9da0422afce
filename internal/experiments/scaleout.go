package experiments

// Scale-out experiment (DESIGN.md §10): the journal version's headline
// efficiency claim is many tenant VMs multiplexed onto one shared,
// multi-queue NSM that spreads its packet processing across cores. The
// measurement multiplexes scaleoutVMs tenant VMs per host onto a
// single multi-core NSM and opens scaleoutFlowsPerVM bulk flows per
// tenant; RSS flow steering (vswitch.TupleHash over the 4-tuple) pins
// each flow to a channel shard and the NSM stack dispatches each
// flow's packets to CPU core == shard. Shards=1 models the conference paper's
// single-queue NSM — every flow serialized on core 0, the scale-out
// baseline — while Shards=N spreads the same offered load over N
// cores. The NSM's CPU size is held constant across runs so the only
// variable is steering.

import (
	"time"

	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
)

const (
	// scaleoutVMs is the tenant VM count per host.
	scaleoutVMs = 8
	// scaleoutFlowsPerVM is the concurrent bulk flows per tenant.
	scaleoutFlowsPerVM = 4
	// scaleoutCores sizes each NSM's dedicated CPU, identical for every
	// shard count so runs differ only in steering.
	scaleoutCores = 4
	// scaleoutWarmup precedes the measured window of scaleoutWindow
	// (after the NSM boot).
	scaleoutWarmup = 50 * time.Millisecond
	scaleoutWindow = 50 * time.Millisecond
	// scaleoutSeed drives deterministic randomness.
	scaleoutSeed = 4242
)

// ScaleoutConfig shapes the many-VM/many-flow measurement.
type ScaleoutConfig struct {
	// Shards is the channel/stack shard count (default 1, the
	// single-queue baseline).
	Shards int
}

// ScaleoutResult reports one run of the many-VM/many-flow measurement.
type ScaleoutResult struct {
	Shards int
	VMs    int
	Flows  int
	// Established counts flows that completed their handshake.
	Established int
	// AggregateBps is the summed receive-side goodput over the window.
	AggregateBps float64
	// ShardConns is the server NSM's per-shard connection-table
	// occupancy at the end of the window (length == stack shards).
	ShardConns []int
}

// RunScaleout multiplexes scaleoutVMs tenants per host onto one shared
// multi-core NSM each and measures aggregate goodput across
// scaleoutVMs×scaleoutFlowsPerVM bulk flows.
func RunScaleout(cfg ScaleoutConfig) ScaleoutResult {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	w := NewWorld(WorldConfig{
		// Fat, short pipe: the 100G link never binds, so aggregate
		// goodput is set by how many NSM cores the steering can keep
		// busy at PerPacketCost per frame.
		Link:          netsim.LinkConfig{Rate: 100 * netsim.Gbps, Delay: 20 * time.Microsecond, QueueBytes: 2 << 20},
		PerPacketCost: 2 * time.Microsecond,
		Cores:         8,
		Seed:          scaleoutSeed,
		MinRTO:        10 * time.Millisecond,
		Mutate: func(hc *hypervisor.HostConfig) {
			hc.Shards = cfg.Shards
		},
	})

	// One multi-core NSM per host; tenant 0 boots it, the rest attach
	// to it (ShareWith) and inherit its network identity.
	mkTenants := func(h *hypervisor.Host, ip [4]byte) []*hypervisor.VM {
		vms := make([]*hypervisor.VM, scaleoutVMs)
		var first *hypervisor.NSM
		for i := range vms {
			spec := hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "cubic", Cores: scaleoutCores}
			if first != nil {
				spec = hypervisor.NSMSpec{ShareWith: first}
			}
			vm, err := h.CreateVM(hypervisor.VMConfig{
				Name: "tenant", IP: ip, Mode: hypervisor.ModeNetKernel, NSM: spec,
			})
			if err != nil {
				panic(err)
			}
			vms[i] = vm
			if first == nil {
				first = vm.NSM
			}
		}
		return vms
	}
	clients := mkTenants(w.H1, SenderIP)
	servers := mkTenants(w.H2, ReceiverIP)

	w.Loop.RunFor(clients[0].NSM.Profile.BootTime + 50*time.Millisecond)

	// scaleoutFlowsPerVM bulk flows from each client tenant to its paired
	// server tenant, every flow on its own port so the 4-tuples (and
	// therefore the RSS shards) spread.
	var flows []*Flow
	for i := 0; i < scaleoutVMs; i++ {
		for j := 0; j < scaleoutFlowsPerVM; j++ {
			port := uint16(7000 + i*scaleoutFlowsPerVM + j)
			flows = append(flows, StartFlow(w, clients[i], servers[i], port))
		}
	}

	agg := MeasureGoodput(w, flows, scaleoutWarmup, scaleoutWindow)

	res := ScaleoutResult{
		Shards:       cfg.Shards,
		VMs:          scaleoutVMs,
		Flows:        len(flows),
		AggregateBps: agg,
	}
	for _, f := range flows {
		if f.Established {
			res.Established++
		}
	}
	st := servers[0].NSM.Stack
	for i := 0; i < st.RxShards(); i++ {
		res.ShardConns = append(res.ShardConns, st.ShardConnCount(i))
	}
	return res
}
