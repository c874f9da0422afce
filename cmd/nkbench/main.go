// Command nkbench regenerates every table and figure of "Network Stack
// as a Service in the Cloud" (HotNets 2017) from the NetKernel
// reproduction, printing rows in the paper's format alongside the
// published values.
//
// Usage:
//
//	nkbench [-quick] [-seed N] [fig4|table1|micro|fig5|ablations|all]
//
// Wall-clock cost: table1 and micro are seconds; fig5 and the
// ablations are tens of seconds; fig4 simulates a 40 GbE fabric
// packet by packet and takes a few minutes. EXPERIMENTS.md records a
// reference run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"netkernel/internal/experiments"
)

var (
	quick = flag.Bool("quick", false, "shorter measurement windows (less precise)")
	seed  = flag.Uint64("seed", 0, "override the deterministic seed")
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nkbench [-quick] [-seed N] [fig4|table1|micro|fig5|ablations|all]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	what := "all"
	if flag.NArg() > 0 {
		what = flag.Arg(0)
	}
	run := func(name string, fn func()) {
		if what == "all" || what == name {
			start := time.Now()
			fn()
			fmt.Printf("  [%s took %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	run("table1", table1)
	run("micro", micro)
	run("rpc", rpc)
	run("fig4", fig4)
	run("fig5", fig5)
	run("ablations", ablations)
	switch what {
	case "all", "table1", "micro", "rpc", "fig4", "fig5", "ablations":
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func header(title string) {
	fmt.Printf("=== %s ===\n", title)
}

func table1() {
	header("Table 1: Memory copying latency in NetKernel")
	paper := map[int]string{64: "8ns", 512: "64ns", 1 << 10: "117ns", 2 << 10: "214ns", 4 << 10: "425ns", 8 << 10: "809ns"}
	iters := 200000
	if *quick {
		iters = 20000
	}
	rows := experiments.RunTable1(iters)
	fmt.Printf("%-12s %-12s %-12s\n", "Chunk Size", "Measured", "Paper (Xeon E5-2618LV3)")
	for _, r := range rows {
		fmt.Printf("%-12s %-12v %-12s\n", byteSize(r.ChunkBytes), r.Latency, paper[r.ChunkBytes])
	}
}

func micro() {
	header("§4.2 microbenchmarks")
	iters := 1 << 20
	dur := 500 * time.Millisecond
	if *quick {
		iters = 1 << 17
		dur = 100 * time.Millisecond
	}
	nqe := experiments.NqeCopyCost(iters)
	fmt.Printf("nqe copy via CoreEngine: %v per event (paper: ~12ns)\n", nqe)
	rows := experiments.RunShmChannel([]int{64, 512, 1 << 10, 2 << 10, 4 << 10, 8 << 10}, dur)
	fmt.Printf("GuestLib↔ServiceLib channel, one core (paper: ~64Gbps @64B, ~81Gbps @8KB):\n")
	for _, r := range rows {
		fmt.Printf("  %-8s %8.2f Gbit/s\n", byteSize(r.ChunkBytes), r.BitsPerSec/1e9)
	}

	cb := experiments.CopyBudgetConfig{Seed: *seed}
	if *quick {
		cb.Warmup = 100 * time.Millisecond
		cb.Window = 100 * time.Millisecond
	}
	res := experiments.RunCopyBudget(cb)
	fmt.Printf("streaming-echo copy budget (DESIGN.md §8, budget ≤2 copies/byte per direction):\n")
	fmt.Printf("  %-8s %8.2f Gbit/s\n", "goodput", res.GoodputBps/1e9)
	fmt.Printf("  %-8s %8.3f copies/B  (guest %d + service %d + tcp %d copied of %d payload B)\n",
		"send", res.TxCopiesPerByte,
		res.Report.GuestTxCopied, res.Report.ServiceTxCopied, res.Report.TCPTxCopied, res.Report.PayloadTx)
	fmt.Printf("  %-8s %8.3f copies/B  (guest %d + service %d + tcp %d copied of %d payload B)\n",
		"recv", res.RxCopiesPerByte,
		res.Report.GuestRxCopied, res.Report.ServiceRxCopied, res.Report.TCPRxCopied, res.Report.PayloadRx)
	fmt.Printf("  %-8s %8.3f copies/B  (below TCP: %d B copied into frames, retransmissions included; 0 on receive)\n",
		"wire", float64(res.Report.FrameTxCopied)/float64(res.Report.PayloadTx), res.Report.FrameTxCopied)

	// The same run's client-host registry, excerpted (nkctl stats
	// renders the full set for the demo cloud).
	fmt.Printf("unified registry excerpt (client host):\n")
	excerpt := res.Snapshot.Filter("vm1.guest.", "engine.", "nsm1.stack.tcp")
	for _, line := range strings.Split(strings.TrimRight(excerpt.String(), "\n"), "\n") {
		fmt.Println("  " + line)
	}
}

func rpc() {
	header("Message-rate fast path (DESIGN.md §11)")
	cfg := experiments.RPCConfig{Seed: *seed}
	if *quick {
		cfg.Conns = 8
		cfg.Warmup = 5 * time.Millisecond
		cfg.Window = 10 * time.Millisecond
		cfg.SparseConns = 500
		cfg.Bursts = 40
		cfg.ChurnWindow = 5 * time.Millisecond
	}
	res := experiments.RunRPC(cfg)
	fmt.Printf("echo:   %d conns × %dB closed loop: %.0f RPS (%d round trips)\n",
		res.Conns, res.MsgBytes, res.EchoRPS, res.RoundTrips)
	fmt.Printf("sparse: %d conns, poller %d wakeups for %d events vs %d per-event callbacks (%.2fx amortization)\n",
		res.SparseConns, res.PollerWakeups, res.PollerEvents, res.CallbackWakeups, res.AmortizationRatio)
	fmt.Printf("        wakeup latency poller=%v callback=%v\n", res.PollerLatency, res.CallbackLatency)
	fmt.Printf("churn:  %.0f connect→close cycles/s (%d cycles)\n", res.ChurnPerSec, res.ChurnCycles)
}

func fig4() {
	header("Figure 4: Throughput of TCP Cubic and NetKernel TCP Cubic NSM (40GbE)")
	cfg := experiments.Figure4Config{}
	if *quick {
		cfg.Warmup = 100 * time.Millisecond
		cfg.Window = 100 * time.Millisecond
	}
	rows := experiments.RunFigure4(cfg)
	fmt.Printf("%-8s %-16s %-16s %-10s\n", "Flows", "Linux (CUBIC)", "CUBIC NSM", "Line rate")
	for _, r := range rows {
		fmt.Printf("%-8d %8.1f Gbit/s  %8.1f Gbit/s  %6.1f Gbit/s\n",
			r.Flows, r.NativeBps/1e9, r.NSMBps/1e9, r.LineRate/1e9)
	}
	fmt.Println("paper: both reach line rate (~37 Gbit/s) at ≥2 flows; single flow core-limited")
}

func fig5() {
	header("Figure 5: A Windows VM utilizes BBR by NetKernel (12 Mbit/s, 350 ms WAN)")
	paper := map[string]float64{"BBR NSM": 11.12, "Linux BBR": 11.14, "Windows CTCP": 8.60, "Linux Cubic": 2.61}
	cfg := experiments.Figure5Config{Seed: *seed, Duration: 30 * time.Second}
	if *quick {
		cfg.Duration = 10 * time.Second
	}
	rows := experiments.RunFigure5(cfg)
	fmt.Printf("%-16s %-14s %-14s\n", "Scenario", "Measured", "Paper")
	for _, r := range rows {
		fmt.Printf("%-16s %7.2f Mbit/s %7.2f Mbit/s\n", r.Scenario, r.Mbps, paper[r.Scenario])
	}
}

func ablations() {
	header("Ablation: notification modes (§5 resource efficiency)")
	for _, r := range experiments.RunNotifyAblation() {
		fmt.Printf("%-16s connect=%-12v throughput=%5.1f Gbit/s  engine: %s\n",
			r.Mode, r.ConnectRTT, r.ThroughputBps/1e9, r.EngineCPU)
	}
	fmt.Println()

	header("Ablation: priority queues (§3.2 head-of-line blocking)")
	for _, r := range experiments.RunPriorityAblation() {
		fmt.Printf("priority=%-6v connect-under-load=%-14v throughput=%5.1f Gbit/s\n",
			r.Priority, r.ConnectLatency, r.ThroughputBps/1e9)
	}
	fmt.Println()

	header("Ablation: NSM form (§5)")
	for _, r := range experiments.RunFormAblation() {
		fmt.Printf("%-10s boot=%-8v connect=%-12v throughput=%5.1f Gbit/s mem=%4d MB  isolation: %s\n",
			r.Form, r.BootTime, r.ConnectRTT, r.ThroughputBps/1e9, r.MemoryMB, r.Isolation)
	}
	fmt.Println()

	header("Ablation: multiplexing and QoS (§2.1, §5)")
	for _, r := range experiments.RunMuxAblation() {
		fmt.Printf("%-12s nsms=%d mem=%4d MB aggregate=%5.1f Gbit/s per-tenant=", r.Strategy, r.NSMs, r.MemoryMB, r.AggregateBps/1e9)
		for i, bps := range r.PerTenantBps {
			if i > 0 {
				fmt.Print("/")
			}
			fmt.Printf("%.1fG", bps/1e9)
		}
		fmt.Println()
	}
	fmt.Println()

	header("Ablation: scale-out replicas (§2.1)")
	for _, r := range experiments.RunScaleOutAblation() {
		fmt.Printf("replicas=%d aggregate=%5.1f Gbit/s (single-core NSM cap %.1f Gbit/s)\n",
			r.Replicas, r.AggregateBps/1e9, r.CoreCapBps/1e9)
	}
	fmt.Println()

	header("Ablation: synchronous vs asynchronous operations (§3.2)")
	for _, r := range experiments.RunSyncAblation() {
		fmt.Printf("%-24s throughput=%5.2f Gbit/s ops/s=%.0f\n", r.Mode, r.ThroughputBps/1e9, r.OpsPerSec)
	}
}

func byteSize(n int) string {
	if n >= 1<<10 {
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
