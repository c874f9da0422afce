package experiments

import (
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
)

// Figure5Config parameterizes the §4.3 flexibility experiment: "We use
// a Windows VM with the NetKernel BBR NSM … a Windows VM running its
// default C-TCP in kernel as well as a Linux VM running Cubic and BBR
// (without NetKernel) for comparison. The TCP server is located in
// Beijing … the client is in California. The uplink bandwidth of the
// server is 12 Mbps and the average RTT is 350 ms."
type Figure5Config struct {
	// LossProb is the WAN's random loss; the paper does not publish
	// it, so it is the calibration knob (see EXPERIMENTS.md). Default
	// 0.003 lands CUBIC near the paper's 2.61/12 Mbit/s ratio.
	LossProb float64
	// Duration is the measurement period (paper: results averaged
	// over 10 s). Default 10 s.
	Duration time.Duration
	// Warmup precedes measurement (default 10 s: slow-start transients
	// on a 350 ms path take several seconds to settle).
	Warmup time.Duration
	// Seed drives the deterministic loss process.
	Seed uint64
}

func (c *Figure5Config) fillDefaults() {
	if c.LossProb == 0 {
		c.LossProb = 0.003
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Warmup <= 0 {
		c.Warmup = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 5
	}
}

// Figure5Row is one bar of Figure 5.
type Figure5Row struct {
	Scenario string
	Mbps     float64
}

// Figure5Scenarios are the paper's four bars, in its order.
var Figure5Scenarios = []string{"BBR NSM", "Linux BBR", "Windows CTCP", "Linux Cubic"}

// RunFigure5 reproduces Figure 5: "A Windows VM utilizes BBR by
// NetKernel, achieving similar throughput with original Linux BBR"
// (paper: 11.12 vs 11.14 Mbit/s, with Windows C-TCP at 8.60 and Linux
// CUBIC at 2.61).
func RunFigure5(cfg Figure5Config) []Figure5Row {
	cfg.fillDefaults()
	rows := make([]Figure5Row, 0, len(Figure5Scenarios))
	for _, sc := range Figure5Scenarios {
		rows = append(rows, Figure5Row{Scenario: sc, Mbps: runFig5Scenario(cfg, sc) / 1e6})
	}
	return rows
}

func runFig5Scenario(cfg Figure5Config, scenario string) float64 {
	w := NewWorld(WorldConfig{
		Link:  netsim.WANPath(cfg.LossProb),
		Cores: 8,
		Seed:  cfg.Seed,
	})

	// The receiving client in California: a plain Linux VM.
	receiver, err := w.H2.CreateVM(hypervisor.VMConfig{
		Name: "client-california", IP: ReceiverIP, Mode: hypervisor.ModeLegacy,
		Profile: guestlib.ProfileLinux,
	})
	if err != nil {
		panic(err)
	}

	// The sending server in Beijing, per scenario.
	var sender *hypervisor.VM
	switch scenario {
	case "BBR NSM":
		// Windows guest whose traffic runs BBR because its NSM does.
		sender, err = w.H1.CreateVM(hypervisor.VMConfig{
			Name: "server-beijing", IP: SenderIP, Mode: hypervisor.ModeNetKernel,
			Profile: guestlib.ProfileWindows,
			NSM:     hypervisor.NSMSpec{Form: hypervisor.FormVM, CC: "bbr"},
		})
	case "Linux BBR":
		// A Linux guest with BBR compiled into its own kernel.
		sender, err = w.H1.CreateVM(hypervisor.VMConfig{
			Name: "server-beijing", IP: SenderIP, Mode: hypervisor.ModeLegacy,
			Profile: guestlib.ProfileLinux,
		})
		sender.Legacy.SetDefaultCC("bbr")
	case "Windows CTCP":
		sender, err = w.H1.CreateVM(hypervisor.VMConfig{
			Name: "server-beijing", IP: SenderIP, Mode: hypervisor.ModeLegacy,
			Profile: guestlib.ProfileWindows, // kernel default: ctcp
		})
	case "Linux Cubic":
		sender, err = w.H1.CreateVM(hypervisor.VMConfig{
			Name: "server-beijing", IP: SenderIP, Mode: hypervisor.ModeLegacy,
			Profile: guestlib.ProfileLinux, // kernel default: cubic
		})
	default:
		panic("experiments: unknown Figure 5 scenario " + scenario)
	}
	if err != nil {
		panic(err)
	}

	if sender.NSM != nil {
		w.Loop.RunFor(sender.NSM.Profile.BootTime + 100*time.Millisecond)
	}
	fl := StartFlow(w, sender, receiver, 443)
	return MeasureGoodput(w, []*Flow{fl}, cfg.Warmup, cfg.Duration)
}
