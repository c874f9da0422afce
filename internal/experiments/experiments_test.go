package experiments

import (
	"testing"
	"time"
)

// The experiment tests assert the *shape* of each paper result, the
// reproduction criterion set in DESIGN.md, and check each virtual-time
// result against the exact record (record_test.go). Full-size runs
// happen in cmd/nkbench; these use shortened windows.

func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 4 takes ~1 min")
	}
	rows := RunFigure4(Figure4Config{Warmup: 400 * time.Millisecond, Window: 200 * time.Millisecond})
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	checkRecord(t, "fig4", rows)
	// ≥2 flows: native at line rate (within 15%); the NSM path is
	// allowed a wider band (its shm latency stretches loss recovery —
	// see EXPERIMENTS.md for the measured 2-flow value).
	for _, r := range rows[1:] {
		if r.NativePct < 85 {
			t.Errorf("native at %d flows reached only %.0f%% of line rate", r.Flows, r.NativePct)
		}
		if r.NSMPct < 75 {
			t.Errorf("NSM at %d flows reached only %.0f%% of line rate", r.Flows, r.NSMPct)
		}
	}
	// 1 flow: both well below line rate (the per-core ceiling) and
	// within 25% of each other.
	one := rows[0]
	if one.NativePct > 80 || one.NSMPct > 80 {
		t.Errorf("single flow should be core-limited: native %.0f%%, nsm %.0f%%", one.NativePct, one.NSMPct)
	}
	if one.NSMPenalty > 0.25 || one.NSMPenalty < -0.25 {
		t.Errorf("single-flow NSM penalty %.0f%%, want within 25%% of native", one.NSMPenalty*100)
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 5 takes ~30s")
	}
	// Longer-than-paper measurement (30 s vs 10 s) to smooth the
	// variance of individual loss realizations.
	rows := RunFigure5(Figure5Config{Duration: 30 * time.Second})
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Scenario] = r.Mbps
	}
	checkRecord(t, "fig5", rows)
	// The paper's ordering: Cubic ≪ CTCP < BBR NSM ≈ Linux BBR ≈ link.
	if !(byName["Linux Cubic"] < byName["Windows CTCP"]) {
		t.Errorf("CUBIC (%.2f) should lose to CTCP (%.2f)", byName["Linux Cubic"], byName["Windows CTCP"])
	}
	if !(byName["Windows CTCP"] < byName["BBR NSM"]) {
		t.Errorf("CTCP (%.2f) should lose to BBR NSM (%.2f)", byName["Windows CTCP"], byName["BBR NSM"])
	}
	// The §4.3 claim: the Windows VM with the BBR NSM matches native BBR.
	diff := byName["BBR NSM"] - byName["Linux BBR"]
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.15*byName["Linux BBR"] {
		t.Errorf("BBR NSM (%.2f) vs Linux BBR (%.2f): not within 15%%", byName["BBR NSM"], byName["Linux BBR"])
	}
	// BBR holds most of the 12 Mbit/s link despite the loss.
	if byName["BBR NSM"] < 8 {
		t.Errorf("BBR NSM only %.2f Mbit/s on a 12 Mbit/s link", byName["BBR NSM"])
	}
	// CUBIC collapses under random loss (paper: 2.61 of 12).
	if byName["Linux Cubic"] > 6 {
		t.Errorf("Linux Cubic at %.2f Mbit/s does not show loss collapse", byName["Linux Cubic"])
	}
}

func TestTable1Shape(t *testing.T) {
	rows := RunTable1(20000)
	if len(rows) != len(Table1Chunks) {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		t.Logf("%5dB  %v", r.ChunkBytes, r.Latency)
	}
	// Monotone growth with chunk size; sub-microsecond-ish at 8 KB
	// (generous bound: CI machines vary).
	for i := 1; i < len(rows); i++ {
		if rows[i].Latency < rows[i-1].Latency/2 {
			t.Errorf("latency not roughly monotone: %v then %v", rows[i-1], rows[i])
		}
	}
	if rows[len(rows)-1].Latency > 10*time.Microsecond {
		t.Errorf("8KB copy took %v, want microsecond scale", rows[len(rows)-1].Latency)
	}
}

func TestNqeCopyCostShape(t *testing.T) {
	d := NqeCopyCost(200000)
	t.Logf("nqe copy: %v", d)
	// The paper measures ~12 ns; allow a wide band for host variance.
	if d > 500*time.Nanosecond {
		t.Errorf("nqe copy cost %v, want tens of ns", d)
	}
}

func TestShmChannelShape(t *testing.T) {
	rows := RunShmChannel([]int{64, 8 << 10}, 100*time.Millisecond)
	for _, r := range rows {
		t.Logf("%5dB  %.1f Gbit/s", r.ChunkBytes, r.BitsPerSec/1e9)
	}
	// 8 KB chunks must move multiple Gbit/s per core and beat the
	// per-64B-chunk rate per byte of descriptor overhead... the paper's
	// claim is "NetKernel is unlikely to be the bottleneck": the channel
	// must comfortably exceed a 40G NIC for large chunks on modern CPUs,
	// but CI hosts vary; require >5 Gbit/s.
	if rows[1].BitsPerSec < 5e9 {
		t.Errorf("8KB channel rate %.1f Gbit/s too low", rows[1].BitsPerSec/1e9)
	}
}

func TestNotifyAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation takes ~20s")
	}
	rows := RunNotifyAblation()
	checkRecord(t, "ablation/notify", rows)
	// Lazier notification → slower connection setup.
	if rows[0].ConnectRTT >= rows[len(rows)-1].ConnectRTT {
		t.Errorf("polling connect (%v) should beat lazy interrupts (%v)",
			rows[0].ConnectRTT, rows[len(rows)-1].ConnectRTT)
	}
}

func TestPriorityAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation takes ~20s")
	}
	rows := RunPriorityAblation()
	checkRecord(t, "ablation/priority", rows)
	if rows[1].ConnectLatency >= rows[0].ConnectLatency {
		t.Errorf("priority queues did not improve connect latency under load: %v vs %v",
			rows[1].ConnectLatency, rows[0].ConnectLatency)
	}
}

func TestFormAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation takes ~20s")
	}
	rows := RunFormAblation()
	checkRecord(t, "ablation/form", rows)
	// Module boots faster and connects faster than the full VM.
	var vm, module FormRow
	for _, r := range rows {
		switch r.Form.String() {
		case "vm":
			vm = r
		case "module":
			module = r
		}
	}
	if module.BootTime >= vm.BootTime || module.ConnectRTT >= vm.ConnectRTT {
		t.Errorf("module (boot %v, rtt %v) should beat vm (boot %v, rtt %v)",
			module.BootTime, module.ConnectRTT, vm.BootTime, vm.ConnectRTT)
	}
}

func TestMuxAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation takes ~30s")
	}
	rows := RunMuxAblation()
	checkRecord(t, "ablation/mux", rows)
	ded, shared, qos := rows[0], rows[1], rows[2]
	if shared.NSMs != 1 || ded.NSMs != 3 {
		t.Fatalf("NSM counts: dedicated=%d shared=%d", ded.NSMs, shared.NSMs)
	}
	if shared.MemoryMB >= ded.MemoryMB {
		t.Errorf("multiplexing should save memory: %d vs %d", shared.MemoryMB, ded.MemoryMB)
	}
	// QoS: tenant 0 (2 Gbit/s SLA) gets about twice tenants 1 and 2.
	if qos.PerTenantBps[0] < 1.5*qos.PerTenantBps[1] {
		t.Errorf("QoS split not enforced: %v", qos.PerTenantBps)
	}
	if qos.PerTenantBps[0] > 2.4e9 {
		t.Errorf("tenant 0 exceeded its 2 Gbit/s SLA: %.2fG", qos.PerTenantBps[0]/1e9)
	}
}

func TestSyncAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation takes ~10s")
	}
	rows := RunSyncAblation()
	checkRecord(t, "ablation/sync", rows)
	if rows[1].ThroughputBps <= rows[0].ThroughputBps {
		t.Errorf("async (%.2fG) should beat sync (%.2fG)",
			rows[1].ThroughputBps/1e9, rows[0].ThroughputBps/1e9)
	}
}

func TestScaleOutAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation takes ~30s")
	}
	rows := RunScaleOutAblation()
	checkRecord(t, "ablation/scaleout", rows)
	one, three := rows[0].AggregateBps, rows[2].AggregateBps
	if one > 1.3*rows[0].CoreCapBps {
		t.Errorf("single 1-core NSM exceeded its core cap: %.1fG", one/1e9)
	}
	if three < 1.5*one {
		t.Errorf("3 replicas (%.1fG) did not meaningfully scale past 1 (%.1fG)", three/1e9, one/1e9)
	}
}

// TestCopyBudgetGate is the data-path copy-budget gate (DESIGN.md §8):
// the streaming echo must cost at most 1 copy per payload byte on send
// and 2 on receive, with 2.5 as the ceiling to absorb the copy fallbacks
// (out-of-order bytes staged in rcvBuf, oversized writes). Untraced, the
// echo must complete no span.
func TestCopyBudgetGate(t *testing.T) {
	if testing.Short() {
		t.Skip("copy-budget echo takes ~2.5s")
	}
	res := RunCopyBudget(copyBudgetConfig)
	checkRecord(t, "copybudget", res)
	if res.BytesEchoed == 0 {
		t.Fatal("echo flow moved no bytes")
	}
	if res.TxCopiesPerByte > 2.5 {
		t.Errorf("send path copies/byte %.3f exceeds the 2.5 budget", res.TxCopiesPerByte)
	}
	if res.RxCopiesPerByte > 2.5 {
		t.Errorf("receive path copies/byte %.3f exceeds the 2.5 budget", res.RxCopiesPerByte)
	}
	if len(res.Spans) != 0 {
		t.Errorf("tracing off yet %d spans completed", len(res.Spans))
	}
}

// copyBudgetConfig is the echo both TestCopyBudgetGate and
// TestTraceOverheadGate run.
var copyBudgetConfig = CopyBudgetConfig{
	Warmup: 100 * time.Millisecond,
	Window: 100 * time.Millisecond,
}

// TestTraceOverheadGate runs TestCopyBudgetGate's echo traced at 1 in
// 64: it must complete spans, and the record holds them with their
// per-hop virtual-time offsets. Goodput here is virtual time, which no
// host cost moves; the host overhead of tracing is bench's
// trace.overhead_frac.
func TestTraceOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("traced echo takes ~2.5s")
	}
	cfg := copyBudgetConfig
	cfg.TraceSampleEvery = 64
	traced := RunCopyBudget(cfg)
	checkRecord(t, "copybudget/traced", traced)
	if len(traced.Spans) == 0 {
		t.Error("tracing 1/64 completed no spans")
	}
}

// TestScaleoutGate is the multi-core NSM gate (DESIGN.md §10): the
// many-VM/many-flow measurement — 8 tenant VMs per host multiplexed onto
// one shared 4-core NSM, 32 bulk flows — must scale when the channel and
// connection table shard.
func TestScaleoutGate(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-out pair takes ~60s")
	}
	one := RunScaleout(ScaleoutConfig{Shards: 1})
	four := RunScaleout(ScaleoutConfig{Shards: 4})
	checkRecord(t, "scaleout/shards=1", one)
	checkRecord(t, "scaleout/shards=4", four)
	for _, r := range []ScaleoutResult{one, four} {
		if r.Established != r.Flows {
			t.Errorf("shards=%d: only %d of %d flows established", r.Shards, r.Established, r.Flows)
		}
	}
	if four.AggregateBps < 1.5*one.AggregateBps {
		t.Errorf("shards=4 aggregate %.2f Gbit/s is not ≥1.5x shards=1 %.2f Gbit/s",
			four.AggregateBps/1e9, one.AggregateBps/1e9)
	}
	// Steering must actually spread the server's connection table; a
	// single-shard pileup means the ratio above is measuring luck.
	spread := 0
	for _, n := range four.ShardConns {
		if n > 0 {
			spread++
		}
	}
	if spread < 3 {
		t.Errorf("shards=4 run placed connections on only %d of 4 shards: %v", spread, four.ShardConns)
	}
}

// TestRPCGate is the message-rate gate (DESIGN.md §11): the short-flow
// fast path — small-message echo RPS, sparse-activity wakeup
// amortization, connect→close churn rate. The amortization bound is the
// tentpole claim: one Poller wakeup, reporting every socket a batch of
// events made ready, must replace at least 2 per-event callback wakeups
// under sparse activity (measured: 8.0).
func TestRPCGate(t *testing.T) {
	const (
		minAmortization  = 2.0
		maxSparseLatency = 100 * time.Microsecond
	)
	res := RunRPC(RPCConfig{})
	checkRecord(t, "rpc", res)
	if res.AmortizationRatio < minAmortization {
		t.Errorf("poller amortization %.2fx below the %.0fx bound (poller %d vs callback %d wakeups)",
			res.AmortizationRatio, minAmortization, res.PollerWakeups, res.CallbackWakeups)
	}
	// Coalescing must not buy wakeups with latency: the poller reports a
	// socket ready from the same event that fires the per-event callback,
	// so its sparse wakeup delay is no worse than the callback path's, and
	// under an absolute ceiling.
	if res.PollerLatency > res.CallbackLatency {
		t.Errorf("poller latency %v exceeds callback latency %v",
			res.PollerLatency, res.CallbackLatency)
	}
	if res.PollerLatency > maxSparseLatency {
		t.Errorf("sparse wakeup latency %v exceeds %v", res.PollerLatency, maxSparseLatency)
	}
}

// TestRPCShapeShort reruns the rpc experiment at a second, scaled-down
// configuration: the structural claims — coalescing ≥2x and a sane
// echo loop — must hold away from TestRPCGate's point, not just at it.
func TestRPCShapeShort(t *testing.T) {
	res := RunRPC(RPCConfig{
		Conns: 8, Warmup: 5 * time.Millisecond, Window: 10 * time.Millisecond,
		SparseConns: 500, Bursts: 40, ChurnWindow: 5 * time.Millisecond,
	})
	checkRecord(t, "rpc/short", res)
	if res.RoundTrips == 0 {
		t.Error("echo loop moved no messages")
	}
	if res.AmortizationRatio < 2 {
		t.Errorf("poller amortization %.2fx below 2x even in the short tier", res.AmortizationRatio)
	}
	if res.ChurnCycles == 0 {
		t.Error("churn loop completed no cycles")
	}
}
