package chaostest

import (
	"flag"
	"fmt"
	"reflect"
	"testing"
	"time"

	"netkernel/internal/netsim"
)

// -chaos.seed=N replays every scenario with exactly one seed — the
// one-line reproduction knob printed when a seeded run fails.
var chaosSeed = flag.Uint64("chaos.seed", 0, "run chaos scenarios with this single seed instead of the fixed set")

// -chaos.random adds one wall-clock-derived seed on top of the fixed
// set; CI enables it so every run explores fresh schedules, and the
// failure log carries the seed for replay.
var chaosRandom = flag.Bool("chaos.random", false, "also run each scenario with one random seed")

// fixedSeeds is the deterministic regression set every run covers.
var fixedSeeds = []uint64{1, 7, 42}

// lossyReorderLAN: a misbehaving 1 Gbit/s segment — random loss,
// duplication, corruption, heavy reordering — plus sporadic queue
// stalls and one mid-run link flap.
func lossyReorderLAN() Profile {
	return Profile{
		Name:           "lossy-reorder-lan",
		Link:           netsim.LossyReorderLAN(),
		Flaps:          []Flap{{At: 300 * time.Millisecond, Outage: 40 * time.Millisecond}},
		QueueStallProb: 0.01,
		Conns:          8,
		MaxBody:        128 << 10,
		Spacing:        25 * time.Millisecond,
		Watchdog:       5 * time.Second,
		Run:            2 * time.Second,
		Quiesce:        120 * time.Second,
	}
}

// gilbertElliottWAN: the §4.3 intercontinental path with bursty GE
// loss. 12 Mbit/s and a 350 ms RTT force small payloads and WAN-scale
// TCP timers; the quiesce phase must outlast the full retransmission
// give-up horizon at MinRTO=400ms.
func gilbertElliottWAN() Profile {
	return Profile{
		Name:     "gilbert-elliott-wan",
		Link:     netsim.WANPathGE(0.005, 0.2, 0.5),
		Conns:    4,
		MaxBody:  16 << 10,
		Spacing:  500 * time.Millisecond,
		Watchdog: 60 * time.Second,
		Run:      30 * time.Second,
		Quiesce:  1600 * time.Second,
		MinRTO:   400 * time.Millisecond,
		MSL:      time.Second,
	}
}

// nsmCrashRestart: a clean 40G fabric, but the server-side network
// stack module is killed and rebooted twice mid-workload. Connections
// caught by a crash must fail terminally; later ones (and the
// re-listen) must succeed against the fresh stack.
func nsmCrashRestart() Profile {
	return Profile{
		Name:    "nsm-crash-restart",
		Link:    netsim.Testbed40G(),
		CrashAt: []time.Duration{150 * time.Millisecond, 400 * time.Millisecond},
		Conns:   8,
		MaxBody: 64 << 10,
		Spacing: 60 * time.Millisecond,
		// Crash victims only detect the dead peer via retransmission
		// timeouts, so give them room before the watchdog reaps them.
		Watchdog: 3 * time.Second,
		Run:      2 * time.Second,
		Quiesce:  120 * time.Second,
	}
}

// legacySingleQueue keeps the conference paper's single-queue channel
// (Shards = -1 → no sharding anywhere) covered now that the harness
// default runs the multi-queue datapath.
func legacySingleQueue() Profile {
	prof := lossyReorderLAN()
	prof.Name = "lossy-reorder-lan-legacy"
	prof.Shards = -1
	return prof
}

// A scenario is one seeded profile plus the checks its outcome must pass
// beyond the standard invariants.
type scenario struct {
	prof  Profile
	check func(r Reporter, seed uint64, res *Result) // nil: none
	// regress are seeds this scenario once failed on, run on top of the
	// fixed set (but not under -chaos.seed) so a fixed bug stays fixed.
	regress []uint64
}

// crashRestart expects one NSM restart per scheduled crash.
func crashRestart() scenario {
	prof := nsmCrashRestart()
	return scenario{prof: prof, check: func(r Reporter, seed uint64, res *Result) {
		if res.Restarts != len(prof.CrashAt) {
			r.Errorf("[seed %d] expected %d NSM restarts, got %d", seed, len(prof.CrashAt), res.Restarts)
		}
	}}
}

// seededScenarios is every scenario the seeded tests run, in test order;
// TestChaosSweep runs them all.
func seededScenarios() []scenario {
	return []scenario{
		{prof: lossyReorderLAN()},
		{prof: gilbertElliottWAN()},
		crashRestart(),
		{prof: legacySingleQueue()},
		migrateLossyLANScenario(),
		migrateGEWANScenario(),
		migrateQueueStallsScenario(),
	}
}

// runScenario runs sc on the fixed seeds and its regression seeds, each
// checked against the record, then on the random seed -chaos.random adds;
// -chaos.seed=N runs N alone, unrecorded.
func runScenario(t *testing.T, sc scenario) {
	recorded := append(append([]uint64{}, fixedSeeds...), sc.regress...)
	run := recorded
	switch {
	case *chaosSeed != 0:
		recorded, run = nil, []uint64{*chaosSeed}
	case *chaosRandom:
		run = append(recorded, uint64(time.Now().UnixNano())|1)
	}
	for i, seed := range run {
		t.Run(sc.prof.Name, func(t *testing.T) {
			res := RunAndCheck(t, seed, sc.prof)
			if sc.check != nil {
				sc.check(t, seed, res)
			}
			if i < len(recorded) {
				checkRecord(t, fmt.Sprintf("%s/seed=%d", sc.prof.Name, seed), res)
			}
			if t.Failed() {
				t.Logf("seed %d: %d conns, restarts=%d", seed, len(res.Conns), res.Restarts)
			}
		})
	}
}

func TestChaosLossyReorderLAN(t *testing.T) { runScenario(t, scenario{prof: lossyReorderLAN()}) }

func TestChaosGilbertElliottWAN(t *testing.T) { runScenario(t, scenario{prof: gilbertElliottWAN()}) }

func TestChaosNSMCrashRestart(t *testing.T) { runScenario(t, crashRestart()) }

func TestChaosLegacySingleQueue(t *testing.T) { runScenario(t, scenario{prof: legacySingleQueue()}) }

// TestShardDeterminism is the scale-out replay contract: with an
// explicit 4-shard datapath — four ring sets per channel, RSS flow
// steering, sharded connection tables — two runs of the same seed must
// still be byte-identical. Any schedule dependence hiding in the shard
// plumbing (map iteration over shard tables, cross-shard lookup order,
// per-shard reset order) diverges the trace immediately.
func TestShardDeterminism(t *testing.T) {
	prof := lossyReorderLAN()
	prof.Shards = 4
	a := replay(t, 4242, prof)
	if len(a.Trace) == 0 {
		t.Fatal("empty trace: the scenario recorded nothing")
	}
}

// TestChaosDeterminism is the replay contract: the same seed must
// produce a byte-identical event trace and identical statistics, or
// -chaos.seed is useless as a reproduction tool.
func TestChaosDeterminism(t *testing.T) {
	prof := lossyReorderLAN()
	a := replay(t, 1234, prof)
	if len(a.Trace) == 0 {
		t.Fatal("empty trace: the scenario recorded nothing")
	}
}

// RunAndCheck executes the scenario and applies every invariant,
// logging the trace on failure.
func RunAndCheck(t *testing.T, seed uint64, prof Profile) *Result {
	t.Helper()
	res := RunAndReport(t, seed, prof)
	if t.Failed() {
		for _, line := range res.Trace {
			t.Log(line)
		}
		t.Logf("reproduce with: go test ./internal/chaostest/ -run %s -chaos.seed=%d", t.Name(), seed)
	}
	return res
}

// replay runs prof twice with seed and fails the test unless the two
// results are identical.
func replay(t *testing.T, seed uint64, prof Profile) *Result {
	t.Helper()
	a := Run(seed, prof)
	if diff, ok := Equal(a, Run(seed, prof)); !ok {
		t.Fatalf("two %s runs with seed %d diverged: %s", prof.Name, seed, diff)
	}
	return a
}

// Equal reports whether two results are identical — the determinism
// contract: same seed, same trace, same stats — naming the first trace
// line or, past the trace, the first Result field that differs.
func Equal(a, b *Result) (string, bool) {
	for i := 0; i < len(a.Trace) && i < len(b.Trace); i++ {
		if a.Trace[i] != b.Trace[i] {
			return fmt.Sprintf("trace[%d]: %q vs %q", i, a.Trace[i], b.Trace[i]), false
		}
	}
	da, db := digests("result", a), digests("result", b)
	for _, f := range reflect.VisibleFields(reflect.TypeOf(*a)) {
		if k := "result." + f.Name; da[k] != db[k] {
			return fmt.Sprintf("%s: %s vs %s", k, da[k], db[k]), false
		}
	}
	return "", true
}
