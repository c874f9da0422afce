package experiments

import (
	"time"

	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
)

const (
	// figure4MaxFlows is the end of Figure 4's x-axis: the sweep runs
	// 1 to 3 flows.
	figure4MaxFlows = 3
	// figure4PerPacketCost calibrates the single-flow per-core ceiling:
	// 470 ns/packet ≈ 25 Gbit/s of 1460-byte segments per core, matching
	// the paper's single-flow point.
	figure4PerPacketCost = 470 * time.Nanosecond
)

// Figure4Config parameterizes the Figure 4 reproduction: "Throughput
// of TCP Cubic and NetKernel TCP Cubic NSM" on the 40 GbE testbed,
// 1–3 flows. "We observe the NetKernel NSM achieves virtually same
// throughput with running TCP Cubic natively in the VM. Both can
// achieve line rate (∼37 Gbps) when there are more than two flows."
type Figure4Config struct {
	// Warmup precedes measurement after establishment (default 400 ms:
	// slow-start overshoot into the 4 MB switch buffer takes a few
	// hundred milliseconds of recovery to clear).
	Warmup time.Duration
	// Window is the measurement period (default 200 ms).
	Window time.Duration
}

func (c *Figure4Config) fillDefaults() {
	if c.Warmup <= 0 {
		c.Warmup = 400 * time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 200 * time.Millisecond
	}
}

// Figure4Row is one x-position of Figure 4: both bars.
type Figure4Row struct {
	Flows      int
	NativeBps  float64 // legacy in-guest CUBIC
	NSMBps     float64 // NetKernel CUBIC NSM
	LineRate   float64 // achievable goodput ceiling for reference
	NativePct  float64 // of line rate
	NSMPct     float64
	NSMPenalty float64 // (native-nsm)/native
}

// RunFigure4 reproduces Figure 4.
func RunFigure4(cfg Figure4Config) []Figure4Row {
	cfg.fillDefaults()
	// Goodput ceiling of 40 GbE with 1460-byte segments:
	// 40e9 × 1460 / (1538 bytes on the wire).
	lineRate := 40e9 * 1460 / 1538

	var rows []Figure4Row
	for flows := 1; flows <= figure4MaxFlows; flows++ {
		native := runFig4Scenario(cfg, flows, hypervisor.ModeLegacy)
		nsm := runFig4Scenario(cfg, flows, hypervisor.ModeNetKernel)
		rows = append(rows, Figure4Row{
			Flows:      flows,
			NativeBps:  native,
			NSMBps:     nsm,
			LineRate:   lineRate,
			NativePct:  native / lineRate * 100,
			NSMPct:     nsm / lineRate * 100,
			NSMPenalty: (native - nsm) / native,
		})
	}
	return rows
}

func runFig4Scenario(cfg Figure4Config, flows int, mode hypervisor.VMMode) float64 {
	w := NewWorld(WorldConfig{
		Link:          netsim.Testbed40G(),
		PerPacketCost: figure4PerPacketCost,
		Cores:         8,
		MinRTO:        10 * time.Millisecond,
		Mutate: func(hc *hypervisor.HostConfig) {
			// 40 GbE needs deep buffers: at ~0.5 ms of shm/queueing
			// latency a 1 MiB window caps a flow below 20 Gbit/s.
			hc.SendBufSize = 8 << 20
			hc.RecvBufSize = 8 << 20
			hc.ShmWindow = 8 << 20
		},
	})

	// The NSM is the prototype's form, a full VM (1 core per prototype;
	// here cores scale with flows as §2.1's scale-up describes, since one
	// 470 ns/pkt core cannot exceed ~25 Gbit/s). A legacy VM has none.
	spec := hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "cubic", Cores: 8}
	var receiver *hypervisor.VM
	sender, err := w.H1.CreateVM(hypervisor.VMConfig{Name: "snd", IP: SenderIP, Mode: mode, NSM: spec})
	if err == nil {
		receiver, err = w.H2.CreateVM(hypervisor.VMConfig{Name: "rcv", IP: ReceiverIP, Mode: mode, NSM: spec})
	}
	if err != nil {
		panic(err)
	}
	if sender.NSM != nil {
		// Let the NSM VMs boot before traffic starts.
		w.Loop.RunFor(sender.NSM.Profile.BootTime + 50*time.Millisecond)
	}

	fl := make([]*Flow, flows)
	for i := 0; i < flows; i++ {
		fl[i] = StartFlow(w, sender, receiver, uint16(5001+i))
	}
	return MeasureGoodput(w, fl, cfg.Warmup, cfg.Window)
}
