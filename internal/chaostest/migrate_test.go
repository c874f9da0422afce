package chaostest

import (
	"testing"
	"time"

	"netkernel/internal/netsim"
)

// The handoff scenario family: live NSM migration fired into the same
// fault environments the rest of the suite runs — bursty loss,
// reordering, queue stalls, link flaps — with the standard
// invariants (byte-exact echoes, terminal states, zero chunk/fd/cID
// leaks, telemetry conservation across the old and new registry
// scopes) applied unchanged. A migration must be invisible at the
// socket API no matter what the fault schedule is doing around it.

// migrateLossyLAN chains two live migrations — a build swap at 250 ms
// (straddling the 300 ms link flap) and a CUBIC→BBR hot-swap at
// 700 ms — through the misbehaving LAN profile.
func migrateLossyLAN() Profile {
	p := lossyReorderLAN()
	p.Name = "migrate-lossy-reorder-lan"
	p.Migrations = []MigrationPoint{
		{At: 250 * time.Millisecond},
		{At: 700 * time.Millisecond, CC: "bbr"},
	}
	return p
}

// migrateGEWAN cuts the server module over mid-transfer on the §4.3
// intercontinental path under bursty Gilbert–Elliott loss: WAN-scale
// retransmission state (RTO backoff, SACK scoreboards, in-flight
// spans) must serialize and revive exactly.
func migrateGEWAN() Profile {
	p := gilbertElliottWAN()
	p.Name = "migrate-gilbert-elliott-wan"
	p.Migrations = []MigrationPoint{{At: 1200 * time.Millisecond}}
	return p
}

// migrateLossyLANScenario expects both handoffs to complete without a
// crash restart. Seed 9000001 leaked the frames of a SYN retransmitted
// to a hop whose ARP resolution was then abandoned.
func migrateLossyLANScenario() scenario {
	prof := migrateLossyLAN()
	return scenario{prof: prof, regress: []uint64{9000001}, check: func(r Reporter, seed uint64, res *Result) {
		if res.Migrated != len(prof.Migrations) || res.MigAborted != 0 {
			r.Errorf("[seed %d] migrated=%d aborted=%d, want %d/0",
				seed, res.Migrated, res.MigAborted, len(prof.Migrations))
		}
		if res.Restarts != 0 {
			r.Errorf("[seed %d] live migration caused %d crash restarts", seed, res.Restarts)
		}
	}}
}

// migrateGEWANScenario expects the cutover to complete and to catch
// live connection state.
func migrateGEWANScenario() scenario {
	return scenario{prof: migrateGEWAN(), check: func(r Reporter, seed uint64, res *Result) {
		if res.Migrated != 1 || res.MigAborted != 0 {
			r.Errorf("[seed %d] migrated=%d aborted=%d, want 1/0", seed, res.Migrated, res.MigAborted)
		}
		if res.MigConns == 0 {
			r.Errorf("[seed %d] cutover found the WAN server idle: no in-flight state was serialized", seed)
		}
	}}
}

func TestChaosMigrateLossyLAN(t *testing.T) { runScenario(t, migrateLossyLANScenario()) }

func TestChaosMigrateGilbertElliottWAN(t *testing.T) { runScenario(t, migrateGEWANScenario()) }

// TestChaosMigrateAbortFallsBack injects a restore fault mid-handoff:
// the migration must abort into PR 2 crash semantics — donor reboots
// once, caught connections fail terminally, later traffic succeeds
// against the rebooted module — with every leak and conservation
// invariant still holding. The WAN profile keeps transfers alive for
// seconds, so the 1.2 s cutover reliably catches several connections
// mid-flight; the FailAfter=1 fault fires on the second restore.
// Pinned to one seed because the abort only triggers when at least two
// connections are live at the cutover.
func TestChaosMigrateAbortFallsBack(t *testing.T) {
	prof := gilbertElliottWAN()
	prof.Name = "migrate-abort-fallback"
	prof.Migrations = []MigrationPoint{{At: 1200 * time.Millisecond, FailAfter: 1}}
	const seed = 42
	res := RunAndCheck(t, seed, prof)
	if res.MigAborted != 1 || res.Migrated != 0 {
		t.Fatalf("[seed %d] migrated=%d aborted=%d, want 0/1", seed, res.Migrated, res.MigAborted)
	}
	if res.Restarts != 1 {
		t.Fatalf("[seed %d] abort fallback restarted the donor %d times, want 1", seed, res.Restarts)
	}
}

// TestMigrateDeterminism is the handoff replay contract: two runs of
// the same seed, each migrating the server module mid-transfer with a
// CUBIC→BBR hot-swap and per-nqe tracing armed, must produce
// byte-identical event traces, byte-identical span traces, an
// identical migration schedule (count, conns moved, stall), and
// identical post-migration server stack stats — the post-handoff cwnd
// evolution is a pure function of the seed. The WAN profile guarantees
// the 1.2 s cutover lands while transfers are in flight, so the moved
// state includes live SACK scoreboards and CC internals, not just an
// idle listener.
func TestMigrateDeterminism(t *testing.T) {
	prof := migrateGEWAN()
	prof.Name = "migrate-determinism"
	prof.Migrations = []MigrationPoint{{At: 1200 * time.Millisecond, CC: "bbr"}}
	prof.TraceSampleEvery = 64
	const seed = 4242
	a := replay(t, seed, prof)
	if a.Migrated != len(prof.Migrations) {
		t.Fatalf("only %d of %d migrations completed", a.Migrated, len(prof.Migrations))
	}
	if len(a.Spans) == 0 {
		t.Fatal("no spans recorded: the determinism check covered nothing")
	}
	if a.MigConns == 0 {
		t.Fatal("no connection rode a cutover: the hot-swap never moved live state")
	}
}

// migrateQueueStallsScenario aims the channel-fault artillery at the
// cutover window itself: pushes refused around the freeze/resume
// sequence must delay delivery, never lose it.
func migrateQueueStallsScenario() scenario {
	prof := Profile{
		Name:           "migrate-queue-stalls",
		Link:           netsim.Testbed40G(),
		QueueStallProb: 0.02,
		Conns:          12,
		MaxBody:        256 << 10,
		Spacing:        15 * time.Millisecond,
		Watchdog:       5 * time.Second,
		Run:            2 * time.Second,
		Quiesce:        120 * time.Second,
		Migrations: []MigrationPoint{
			{At: 90 * time.Millisecond, CC: "bbr"},
			{At: 400 * time.Millisecond, CC: "cubic"},
		},
	}
	return scenario{prof: prof, check: func(r Reporter, seed uint64, res *Result) {
		if res.Migrated != 2 || res.MigAborted != 0 {
			r.Errorf("[seed %d] migrated=%d aborted=%d, want 2/0", seed, res.Migrated, res.MigAborted)
		}
	}}
}

func TestMigrateDuringQueueStalls(t *testing.T) { runScenario(t, migrateQueueStallsScenario()) }
