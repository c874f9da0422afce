package netkernel

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"go/ast"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

var ledger = flag.Bool("ledger", false, "build every harness with coverage, run it, and check that each function outside bench/ that none runs is in reachAllow")

// reachAllow lists the functions no harness runs that stay, each with its
// reason. A key is the file, below the module, and the function as `go
// tool covdata func` names it: "internal/sim/loop.go *Loop.Run".
var reachAllow = map[string]string{
	"internal/guestlib/guestlib.go *GuestLib.ReadAvailable": "guest socket API: ioctl(FIONREAD)",
	"internal/guestlib/guestlib.go *GuestLib.Replicas":      "test helper, moves with 18(b)",
	"internal/guestlib/guestlib.go *GuestLib.SetSockOpt":    "guest socket API: setsockopt",
	"internal/guestlib/guestlib.go *Poller.Close":           "guest socket API: close(epfd)",
	"internal/guestlib/guestlib.go *Poller.Remove":          "guest socket API: epoll_ctl(EPOLL_CTL_DEL)",
	"internal/hypervisor/engine.go *CoreEngine.Pairs":       "test helper, moves with 18(b)",
	"internal/hypervisor/engine.go *pairShard.discard":      "the engine's refusal path, ROADMAP 19(a)",
	"internal/hypervisor/engine.go *pairShard.reject":       "the engine's refusal path, ROADMAP 19(a)",
	"internal/hypervisor/host.go *Host.Clock":               "test helper, moves with 18(b)",
	"internal/hypervisor/host.go *Host.VMs":                 "cmd/nkctl's inventory prints it",
	"internal/hypervisor/host.go *VM.Snapshot":              "test helper, moves with 18(b)",
	"internal/hypervisor/host.go VMMode.String":             "fmt.Stringer: formats values in test failures and cmd/ output",
	"internal/mgmt/mgmt.go *ThroughputSLA.String":           "cmd/nkctl prints each tenant's SLA",
	"internal/mgmt/migrate.go *RollingUpgrade.Start":        "§5 provider surface that only cmd/nkctl migrate runs, ROADMAP 20(a)/(c)",
	"internal/mgmt/migrate.go *RollingUpgrade.record":       "§5 provider surface that only cmd/nkctl migrate runs, ROADMAP 20(a)/(c)",
	"internal/mgmt/migrate.go *RollingUpgrade.step":         "§5 provider surface that only cmd/nkctl migrate runs, ROADMAP 20(a)/(c)",
	"internal/mgmt/migrate.go Consolidate":                  "§5 provider surface that only cmd/nkctl migrate runs, ROADMAP 20(a)/(c)",
	"internal/mgmt/migrate.go MigrationBill":                "§5 provider surface that only cmd/nkctl migrate runs, ROADMAP 20(a)/(c)",
	"internal/mgmt/migrate.go NewRollingUpgrade":            "§5 provider surface that only cmd/nkctl migrate runs, ROADMAP 20(a)/(c)",
	"internal/netsim/cpu.go *CPU.Dispatch":                  "bench/ladder.go calls it, ROADMAP 2(h)",
	"internal/netsim/netsim.go BitsPerSec.String":           "fmt.Stringer: formats values in test failures and cmd/ output",
	"internal/netsim/nic.go MAC.String":                     "fmt.Stringer: formats values in test failures and cmd/ output",
	"internal/nkqueue/nkqueue.go *Queue.Cap":                "test helper, moves with 18(b)",
	"internal/nkqueue/nkqueue.go *Queue.Refused":            "hypervisor's footprint test reads it",
	"internal/nqe/nqe.go *Element.String":                   "fmt.Stringer: formats values in test failures and cmd/ output",
	"internal/nqe/nqe.go *Element.Validate":                 "nqe's tests and fuzzer check decoded elements; the engine validates a Slot",
	"internal/nqe/nqe.go Slot.Flags":                        "test helper, moves with 18(b)",
	"internal/pricing/migration.go DefaultMigrationPricer":  "§5 provider surface that only cmd/nkctl migrate runs, ROADMAP 20(a)/(c)",
	"internal/pricing/migration.go MigrationPricer.Price":   "§5 provider surface that only cmd/nkctl migrate runs, ROADMAP 20(a)/(c)",
	"internal/pricing/pricing.go *Meter.StartSampling":      "cmd/nkctl samples its meters' peak connections",
	"internal/proto/arp/arp.go *Cache.Len":                  "test helper, moves with 18(b)",
	"internal/proto/arp/arp.go *Cache.Pending":              "test helper, moves with 18(b)",
	"internal/proto/ethernet/ethernet.go EtherType.String":  "fmt.Stringer: formats values in test failures and cmd/ output",
	"internal/proto/ethernet/ethernet.go MAC.String":        "fmt.Stringer: formats values in test failures and cmd/ output",
	"internal/proto/ipv4/frag.go Fragment":                  "bench/ladder.go and the stack tests' frame oracle call it, ROADMAP 2(h)",
	"internal/proto/ipv4/ipv4.go Addr.String":               "fmt.Stringer: formats values in test failures and cmd/ output",
	"internal/proto/tcp/conn.go *Conn.Abort":                "ServiceLib.resetBacklog's reset, ROADMAP 19(a)",
	"internal/proto/tcp/conn.go *Conn.CWnd":                 "test helper, moves with 18(b)",
	"internal/proto/tcp/conn.go *Conn.FinalSeq":             "a dial that recycles a TIME_WAIT connection's port; no harness runs out of ports",
	"internal/proto/tcp/conn.go *Conn.NagleEnabled":         "hypervisor's setsockopt test reads it",
	"internal/proto/tcp/conn.go *Conn.SetNagle":             "guest socket API: setsockopt(TCP_NODELAY)",
	"internal/proto/tcp/conn.go *Conn.SetReceiveSink":       "bench/ladder.go calls it, ROADMAP 2(h)",
	"internal/proto/tcp/conn.go AddrPort.String":            "fmt.Stringer: formats values in test failures and cmd/ output",
	"internal/proto/tcp/conn.go Dial":                       "bench/ladder.go calls it, ROADMAP 2(h)",
	"internal/proto/tcp/conn.go State.String":               "fmt.Stringer: formats values in test failures and cmd/ output",
	"internal/proto/tcp/listener.go NewPassive":             "bench/ladder.go calls it, ROADMAP 2(h)",
	"internal/proto/tcp/send.go *Conn.onPersist":            "the persist timer, ROADMAP 19(a)",
	"internal/proto/tcp/send.go *Conn.sendWindowProbe":      "the persist timer, ROADMAP 19(a)",
	"internal/proto/tcp/send.go *Conn.srttOr":               "an ECN reaction before the first RTT sample, which no harness marks",
	"internal/proto/tcp/send.go errTimeout.Error":           "a connection that times out, which no harness has",
	"internal/proto/tcp/send.go errTimeout.Timeout":         "a connection that times out, which no harness has",
	"internal/proto/tcp/sendbuf.go *sendBuffer.Empty":       "test helper, moves with 18(b)",
	"internal/proto/tcp/snapshot.go *ConnSnapshot.ISS":      "test helper, moves with 18(b)",
	"internal/proto/tcp/snapshot.go *ConnSnapshot.State":    "the cutover's carry of unowned TIME_WAIT connections; no migration leaves one",
	"internal/proto/tcp/wire.go *Header.Marshal":            "the tests' frame oracle and bench/ladder.go, ROADMAP 10(e)",
	"internal/proto/tcp/wire.go Flags.String":               "fmt.Stringer: formats values in test failures and cmd/ output",
	"internal/sched/sched.go *DRR.AddFlow":                  "DRR waits on ROADMAP 20(b)",
	"internal/sched/sched.go *DRR.Next":                     "DRR waits on ROADMAP 20(b)",
	"internal/sched/sched.go *Flow.Enqueue":                 "DRR waits on ROADMAP 20(b)",
	"internal/sched/sched.go *Flow.Len":                     "DRR waits on ROADMAP 20(b)",
	"internal/sched/sched.go *Flow.Served":                  "DRR waits on ROADMAP 20(b)",
	"internal/sched/sched.go NewDRR":                        "DRR waits on ROADMAP 20(b)",
	"internal/servicelib/servicelib.go *ServiceLib.CC":      "test helper, moves with 18(b)",
	"internal/servicelib/servicelib.go resetBacklog":        "ServiceLib's refusal path, ROADMAP 19(a)",
	"internal/shm/hugepages.go *HugePages.AllocSized":       "bench/ladder.go calls it, ROADMAP 2(h)",
	"internal/shm/hugepages.go *HugePages.Pages":            "test helper, moves with 18(b)",
	"internal/shm/hugepages.go *HugePages.RefCount":         "hypervisor's and tcp's chunk-lifetime tests read it",
	"internal/shm/hugepages.go *HugePages.Retains":          "hypervisor's allocation test reads it",
	"internal/shm/reserve.go *SlotReserve.Bytes":            "test helper, moves with 18(b)",
	"internal/shm/ring.go *Ring.Cap":                        "test helper, moves with 18(b)",
	"internal/sim/loop.go *Loop.Run":                        "tests in six packages drain a loop with it",
	"internal/stack/coretable.go *coreTable.size":           "test helper, moves with 18(b)",
	"internal/stack/stack.go *Stack.Clock":                  "test helper, moves with 18(b)",
	"internal/stack/stack.go *Stack.DefaultCC":              "test helper, moves with 18(b)",
	"internal/stack/stack.go *Stack.Interface":              "cmd/nkctl reads the shared NSM's address",
	"internal/stack/stack.go *Stack.Name":                   "test helper, moves with 18(b)",
	"internal/stack/stack.go ipLess":                        "orders a killed or drained stack's connections, of which no harness leaves two",
	"internal/stack/stack.go lessTuple":                     "orders a killed or drained stack's connections, of which no harness leaves two",
	"internal/tcpcc/bbr.go *BBR.State":                      "test helper, moves with 18(b)",
	"internal/tcpcc/bbr.go bbrState.String":                 "fmt.Stringer: formats values in test failures and cmd/ output",
	"internal/tcpcc/ctcp.go *CTCP.Name":                     "read by a C-TCP connection's snapshot, ROADMAP 19(a)",
	"internal/tcpcc/dctcp.go *DCTCP.Alpha":                  "tcp's ECN test reads it",
	"internal/tcpcc/dctcp.go *DCTCP.OnLoss":                 "DCTCP's loss response; its one harness, examples/containers, loses nothing",
	"internal/tcpcc/reno.go *Reno.Init":                     "nothing selects Reno; the next 18(b) cluster deletes it",
	"internal/tcpcc/reno.go *Reno.Name":                     "nothing selects Reno; the next 18(b) cluster deletes it",
	"internal/tcpcc/reno.go *Reno.NeedsECN":                 "nothing selects Reno; the next 18(b) cluster deletes it",
	"internal/tcpcc/reno.go *Reno.OnAck":                    "nothing selects Reno; the next 18(b) cluster deletes it",
	"internal/tcpcc/reno.go *Reno.OnLoss":                   "nothing selects Reno; the next 18(b) cluster deletes it",
	"internal/tcpcc/state.go *BBR.LoadState":                "a BBR, C-TCP or DCTCP snapshot; every migrate profile runs CUBIC, ROADMAP 19(a)",
	"internal/tcpcc/state.go *BBR.SaveState":                "a BBR, C-TCP or DCTCP snapshot; every migrate profile runs CUBIC, ROADMAP 19(a)",
	"internal/tcpcc/state.go *CTCP.LoadState":               "a BBR, C-TCP or DCTCP snapshot; every migrate profile runs CUBIC, ROADMAP 19(a)",
	"internal/tcpcc/state.go *CTCP.SaveState":               "a BBR, C-TCP or DCTCP snapshot; every migrate profile runs CUBIC, ROADMAP 19(a)",
	"internal/tcpcc/state.go *DCTCP.LoadState":              "a BBR, C-TCP or DCTCP snapshot; every migrate profile runs CUBIC, ROADMAP 19(a)",
	"internal/tcpcc/state.go *DCTCP.SaveState":              "a BBR, C-TCP or DCTCP snapshot; every migrate profile runs CUBIC, ROADMAP 19(a)",
	"internal/tcpcc/state.go b2i":                           "a BBR, C-TCP or DCTCP snapshot; every migrate profile runs CUBIC, ROADMAP 19(a)",
	"internal/tcpcc/tcpcc.go LossKind.String":               "fmt.Stringer: formats values in test failures and cmd/ output",
	"internal/tcpcc/tcpcc.go Names":                         "tcpcc.New's unknown-name error",
	"internal/telemetry/telemetry.go *Registry.Counter":     "test helper, moves with 18(b)",
	"internal/telemetry/telemetry.go Snapshot.Filter":       "VM.Snapshot and cmd/nkctl stats filter with it",
	"internal/telemetry/telemetry.go Snapshot.String":       "cmd/nkctl stats prints it",
	"internal/telemetry/trace.go *Tracer.ActiveCount":       "bench/trace.go calls it under -trace 1",
	"internal/telemetry/trace.go *Tracer.Drop":              "a traced element the engine or ServiceLib discards; no traced harness discards one",
	"internal/telemetry/trace.go *Tracer.SetSampleEvery":    "bench/trace.go calls it under -trace 1",
	"mgmtapi.go ConsolidateNSMs":                            "§5 provider surface, ROADMAP 20(a)",
	"mgmtapi.go DefaultMigrationPricer":                     "§5 provider surface that only cmd/nkctl migrate runs, ROADMAP 20(a)/(c)",
	"mgmtapi.go NewRollingUpgrade":                          "§5 provider surface that only cmd/nkctl migrate runs, ROADMAP 20(a)/(c)",
}

// TestReachabilityLedger keeps unreached code at what reachAllow lists.
// The harnesses are what the repository runs to produce its numbers: the
// benchmark's workloads (BENCHMARK.json), every program under examples/,
// and the tests of internal/experiments (the paper's artefacts) and
// internal/chaostest (the chaos scenarios). The test builds each with
// -cover -coverpkg=netkernel/... — the main package must be in the
// pattern, or a binary writes no profile — runs it, merges the profiles
// and fails, naming each, on a function outside bench/ that ran under
// no harness and is not in reachAllow, and on a reachAllow entry that a
// harness now runs or that names no function. It takes minutes, so it
// runs only with -ledger:
//
//	go test . -run TestReachabilityLedger -ledger -timeout 40m -v
func TestReachabilityLedger(t *testing.T) {
	if !*ledger {
		t.Skip("runs every harness under coverage; enable with -ledger")
	}
	dir := t.TempDir()
	bin, cov := filepath.Join(dir, "bin"), filepath.Join(dir, "cov")
	if err := os.MkdirAll(cov, 0o755); err != nil {
		t.Fatal(err)
	}
	coverpkg := "-coverpkg=" + sweepModule + "/..."
	ledgerRun(t, nil, "go", "build", "-cover", coverpkg, "-o", bin+string(filepath.Separator), "./bench", "./examples/...")

	env := append(os.Environ(), "GOCOVERDIR="+cov)
	for _, w := range benchWorkloads(t) {
		ledgerRun(t, env, filepath.Join(bin, "bench"), "-workload", w, "-seconds", "0.5")
	}
	examples, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range examples {
		if e.IsDir() {
			ledgerRun(t, env, filepath.Join(bin, e.Name()))
		}
	}
	ledgerRun(t, nil, "go", "test", "-cover", coverpkg, "-timeout", "30m",
		"./internal/experiments/", "./internal/chaostest/", "-args", "-test.gocoverdir="+cov)

	ran := parseCovdataFunc(t, ledgerRun(t, nil, "go", "tool", "covdata", "func", "-i", cov))
	keys := make([]string, 0, len(ran))
	unreached := 0
	for key := range ran {
		keys = append(keys, key)
		if !ran[key] {
			unreached++
		}
	}
	for key := range reachAllow {
		if _, ok := ran[key]; !ok {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	t.Logf("%d functions outside bench/, %d run by no harness, %d allowed", len(ran), unreached, len(reachAllow))
	for _, key := range keys {
		_, allowed := reachAllow[key]
		r, linked := ran[key]
		switch {
		case !allowed && !r:
			t.Errorf("%s is run by no harness: drive it, delete it, or add it to reachAllow with a reason", key)
		case allowed && r:
			t.Errorf("reachAllow lists %s, which a harness now runs", key)
		case allowed && !linked:
			t.Errorf("reachAllow lists %s, which names no function a harness links", key)
		}
	}
}

// TestReachAllowIsCurrent is the part of the ledger that needs no
// coverage run: every reachAllow entry names a function declared where
// it says, and gives a reason, so deleting or renaming an allowed
// function without its entry fails in tier-1, before the ledger runs.
func TestReachAllowIsCurrent(t *testing.T) {
	tree, err := parseSweepTree(".")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, f := range tree.files {
		file := filepath.ToSlash(tree.fset.Position(f.ast.Pos()).Filename)
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declared[file+" "+covdataName(fd)] = true
			}
		}
	}
	for key, why := range reachAllow {
		if !declared[key] {
			t.Errorf("reachAllow lists %s, which is not declared", key)
		}
		if strings.TrimSpace(why) == "" {
			t.Errorf("reachAllow lists %s without a reason", key)
		}
	}
}

// TestDocsCiteDeclaredTests keeps the docs' pointers live: every Test*,
// Benchmark* or Fuzz* name that README.md, DESIGN.md or EXPERIMENTS.md
// cites must be declared by some _test.go file. A trailing * in the doc
// cites every name with that prefix, and at least one must exist.
func TestDocsCiteDeclaredTests(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range testDecl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range docCite.FindAllIndex(src, -1) {
			cite := string(src[at[0]:at[1]])
			name, prefix := strings.CutSuffix(cite, "*")
			found := declared[name]
			for d := range declared {
				found = found || prefix && strings.HasPrefix(d, name)
			}
			if !found {
				t.Errorf("%s:%d cites %s, which no _test.go declares", doc, bytes.Count(src[:at[0]], []byte("\n"))+1, cite)
			}
		}
	}
}

var (
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	docCite  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
)

// covdataName names a function the way `go tool covdata func` does:
// "Func", "Type.Method" or "*Type.Method".
func covdataName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	typ, star := fd.Recv.List[0].Type, ""
	if s, ok := typ.(*ast.StarExpr); ok {
		typ, star = s.X, "*"
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	return star + typ.(*ast.Ident).Name + "." + fd.Name.Name
}

// parseCovdataFunc reads `go tool covdata func` output, one
// "netkernel/FILE:LINE: FUNC PERCENT" line per function, and reports for
// each function outside bench/ whether it ran.
func parseCovdataFunc(t *testing.T, out []byte) map[string]bool {
	t.Helper()
	ran := map[string]bool{}
	anyRan := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 || fields[0] == "total:" {
			continue
		}
		file, _, ok := strings.Cut(strings.TrimPrefix(fields[0], sweepModule+"/"), ":")
		if !ok || strings.HasPrefix(file, "bench/") {
			continue
		}
		ran[file+" "+fields[1]] = fields[2] != "0.0%"
		anyRan = anyRan || fields[2] != "0.0%"
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !anyRan {
		t.Fatalf("covdata reported no function that ran:\n%s", out)
	}
	return ran
}

// benchWorkloads returns the benchmark's workloads as BENCHMARK.json
// declares them.
func benchWorkloads(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if len(names) == 0 {
		t.Fatal("BENCHMARK.json declares no workload")
	}
	return names
}

// ledgerRun runs a command from the module root and returns its
// standard output, failing the test with its output if it fails.
func ledgerRun(t *testing.T, env []string, name string, args ...string) []byte {
	t.Helper()
	start := time.Now()
	cmd := exec.Command(name, args...)
	cmd.Env = env
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s%s", name, strings.Join(args, " "), err, out, stderr.Bytes())
	}
	t.Logf("%s %s: %v", filepath.Base(name), strings.Join(args, " "), time.Since(start).Round(time.Second))
	return out
}
