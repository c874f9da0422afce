package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tiny is every workload's shape in the tests: milliseconds of virtual
// time, so tier-1 pays seconds, not minutes.
var tiny = sizes{warmup: 2 * time.Millisecond, slice: time.Millisecond, slices: 6}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(defs []def) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// checkMetrics asserts that got holds exactly the wanted names, once
// each, finite and well-formed.
func checkMetrics(t *testing.T, what string, got []metric, want []string) {
	t.Helper()
	seen := map[string]bool{}
	for _, m := range got {
		if seen[m.Name] {
			t.Errorf("%s: %s reported twice", what, m.Name)
		}
		seen[m.Name] = true
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: bad metric name %q", what, m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v", what, m.Name, m.Value)
		}
		if m.Unit == "" {
			t.Errorf("%s: %s has no unit", what, m.Name)
		}
	}
	for _, n := range want {
		if !seen[n] {
			t.Errorf("%s: %s missing", what, n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		res, err := run(runConfig{wl: wl, seed: 4242, sz: tiny, setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		checkMetrics(t, wl.name+" end to end", res.EndToEnd, names(endToEnd))
		checkMetrics(t, wl.name+" per layer", res.PerLayer, names(inSitu))
		for _, m := range res.EndToEnd {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, m.Name, m.Value)
			}
		}
		if res.OpsFailed != 0 || res.OpsAttempted == 0 || res.OpsMeasured == 0 {
			t.Errorf("%s: attempted %d failed %d measured %d", wl.name, res.OpsAttempted, res.OpsFailed, res.OpsMeasured)
		}
		for _, zero := range []string{"shm.live_refs_end", "nkqueue.conservation_err", "engine.bad_elements"} {
			if v := res.value(zero); v != 0 {
				t.Errorf("%s: %s = %v after drain", wl.name, zero, v)
			}
		}
		line := driverLine(res, nil, false)
		var parsed struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal(line, &parsed); err != nil || !parsed.Correct || len(parsed.Metrics) != len(endToEnd) {
			t.Errorf("%s: driver line %s (%v)", wl.name, line, err)
		}
	}
}

func TestSameSeedSameDigest(t *testing.T) {
	wl := workloadByName("short_flows")
	var digests []string
	for _, seed := range []uint64{4242, 4242, 777} {
		res, err := run(runConfig{wl: wl, seed: seed, sz: tiny, setups: 1})
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, res.ModelDigest)
	}
	if digests[0] != digests[1] {
		t.Errorf("same seed, digests %s and %s", digests[0], digests[1])
	}
	if digests[0] == digests[2] {
		t.Errorf("seeds 4242 and 777 share digest %s", digests[0])
	}
}

func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	wl := workloadByName("rpc_shared")
	sz := sizes{warmup: 2 * time.Millisecond, slice: 3 * time.Millisecond, slices: 6} // long enough for the profiler to sample
	res, err := run(runConfig{wl: wl, seed: 4242, sz: sz, setups: 1, traced: true, outDir: dir, baseUsPerOp: 20})
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, "traced per layer", res.PerLayer, append(names(inSitu), names(tracedDefs)...))
	var sum float64
	for _, m := range res.PerLayer {
		if strings.HasSuffix(m.Name, ".cpu_frac") || m.Name == "runtime.mem_cpu_frac" {
			sum += m.Value
		}
	}
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("cpu_frac shares sum to %v, want 1 ± 0.02", sum)
	}
	if res.value("trace.spans_completed") == 0 || res.value("guestlib.send_ns_p50") == 0 {
		t.Errorf("no spans: completed %v, send p50 %v", res.value("trace.spans_completed"), res.value("guestlib.send_ns_p50"))
	}
	raw, err := os.ReadFile(filepath.Join(dir, "rpc_shared.spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []struct {
			Name             string
			Start, End, Self int64
			ID, Parent       int
			Op               uint64
		}
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, s := range file.Spans {
		count[s.Name]++
		if s.End < s.Start || s.Self < 0 || s.Parent >= s.ID {
			t.Fatalf("bad span %+v", s)
		}
	}
	for name, want := range map[string]int{"setup": 1, "world.build": 1, "nsm.boot": 1, "connect": 1, "warmup": 1, "slice": sz.slices, "drain": 1, "verify": 1} {
		if count[name] != want {
			t.Errorf("%d %q spans, want %d", count[name], name, want)
		}
	}
	if count["guestlib.Send"] == 0 || count["guestlib.Recv"] == 0 || count["guestlib.Poller.Wait"] == 0 {
		t.Errorf("call spans missing: %v", count)
	}
}

func TestLadderReportsEveryMetric(t *testing.T) {
	got := runLadder(0.0005)
	checkMetrics(t, "ladder", got, names(ladderDefs()))
	if len(got) != 32 {
		t.Errorf("%d ladder metrics, want 32", len(got))
	}
	for _, m := range got {
		if m.Unit == "ns" && m.Value <= 0 {
			t.Errorf("%s = %v", m.Name, m.Value)
		}
	}
	if allocsTwin("sim.loop_ns_per_event") != "sim.loop_allocs_per_event" || allocsTwin("ipv4.ns_per_pkt") != "ipv4.allocs_per_pkt" {
		t.Error("allocsTwin does not replace ns with allocs")
	}
}

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the tables in metrics.go")

// manifest renders BENCHMARK.json from the tables in metrics.go and
// workloads.go.
func manifest(t *testing.T) []byte {
	type entry map[string]any
	var wls, e2e, pl []entry
	for _, wl := range workloads {
		wls = append(wls, entry{"name": wl.name, "why": wl.why})
	}
	for _, d := range endToEnd {
		e2e = append(e2e, entry{"name": d.Name, "unit": d.Unit, "better": d.Better, "bound": d.Driver})
	}
	for _, d := range perLayerDefs() {
		pl = append(pl, entry{"name": d.Name, "unit": d.Unit, "better": d.Better})
	}
	raw, err := json.MarshalIndent(map[string]any{
		"command":     []string{"go", "run", "./bench"},
		"paths":       []string{"bench"},
		"run_seconds": 10,
		"workloads":   wls,
		"end_to_end":  e2e,
		"per_layer":   pl,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in metrics.go
// (go test ./bench -run BenchmarkJSON -update rewrites it) and the tables
// to the driver's limits.
func TestBenchmarkJSON(t *testing.T) {
	want := manifest(t)
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in metrics.go; run go test ./bench -run BenchmarkJSON -update")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, limit 2 to 8", n)
	}
	for _, wl := range workloads {
		if !nameRE.MatchString(wl.name) || len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", wl.name, len(wl.why))
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]def{}, endToEnd...), perLayerDefs()...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %+v: bad or repeated name, unit or direction", d)
		}
		seen[d.Name] = true
	}
	if len(endToEnd) > 16 || len(perLayerDefs()) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEnd), len(perLayerDefs()))
	}
	setup := endToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s", setup)
	}
	for _, d := range endToEnd {
		// The driver's bound covers every workload and every seed, so it is
		// never tighter than compare's; setup_s carries the largest.
		if d.Driver < math.Max(d.Bound, d.Lossy) || d.Driver > 0.25 || d.Driver > setup.Driver {
			t.Errorf("%s: driver bound %v outside [%v, min(0.25, setup_s %v)]", d.Name, d.Driver, math.Max(d.Bound, d.Lossy), setup.Driver)
		}
	}
}

func TestPercentileAndMedianSlice(t *testing.T) {
	s := make([]int64, 15000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if got := percentile(s, 0.999); got != 14985 { // 15 samples beyond it
		t.Errorf("p99.9 of 1..15000 = %d, want 14985", got)
	}
	if got := percentile(s, 0.50); got != 7500 {
		t.Errorf("p50 of 1..15000 = %d, want 7500", got)
	}
	if got := percentile([]int64{7}, 0.999); got != 7 {
		t.Errorf("p99.9 of one sample = %d", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("p50 of nothing = %d", got)
	}
	// One slow slice moves the mean by 16 % and the median slice not at all.
	if got := median([]float64{372, 368, 360, 370, 365, 720}); got != 369 {
		t.Errorf("median slice = %v, want 369", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
}

func TestOracle(t *testing.T) {
	ld := newLoad(nil, 4242, nil)
	buf := make([]byte, 3*patternLen/2)
	ld.fill(buf, 3, 1000)
	if !ld.check(3, 1000, buf) || ld.failed != 0 {
		t.Fatal("oracle rejects its own bytes")
	}
	for _, wrong := range []func(){
		func() { ld.check(3, 1001, buf) },                         // right bytes, wrong offset
		func() { ld.check(4, 1000, buf) },                         // right bytes, wrong connection
		func() { buf[patternLen+7] ^= 1; ld.check(3, 1000, buf) }, // one flipped bit past the wrap
	} {
		before := ld.failed
		wrong()
		if ld.failed != before+1 {
			t.Error("oracle accepted wrong bytes")
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := def{Name: "host_us_per_op", Better: "lower"}
	higher := def{Name: "model_ops_per_s", Better: "higher"}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d    def
		a, b []float64
		want string
	}{
		{lower, steady, []float64{104, 105, 103, 104, 104}, "same"},
		{lower, steady, []float64{115, 116, 114, 115, 115}, "worse"},
		{lower, steady, []float64{85, 86, 84, 85, 85}, "better"},
		{higher, steady, []float64{85, 86, 84, 85, 85}, "worse"},
		{higher, steady, []float64{115, 116, 114, 115, 115}, "better"},
		{lower, steady, []float64{80, 150, 100, 120, 90}, "unresolved"}, // B's own spread exceeds the bound
		{lower, []float64{100}, []float64{111}, "worse"},                // single runs have no spread
	} {
		if got := verdict(c.d, 0.10, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Better, c.a, c.b, got, c.want)
		}
	}

	// End to end: files in, table and exit code out.
	dir := t.TempDir()
	write := func(name string, usPerOp, failRatio float64, digest string) string {
		var lines []byte
		for i := 0; i < 3; i++ {
			line, err := json.Marshal(resultSet{Seed: 4242, Seconds: 10, Workloads: []*result{{
				Workload: "bulk_echo", Seed: 4242, Slices: 6, SliceMs: 34, ModelDigest: digest, OpFailRatio: failRatio,
				EndToEnd: []metric{{Name: "host_us_per_op", Unit: "us", Value: usPerOp + float64(i)}, {Name: "host_allocs_per_op", Unit: "count", Value: 925.15}},
				PerLayer: []metric{{Name: "sim.events_per_op", Unit: "count", Value: 230.25}},
			}}})
			if err != nil {
				t.Fatal(err)
			}
			lines = append(append(lines, line...), '\n')
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, lines, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", 365, 0, "d1")
	for _, c := range []struct {
		other string
		code  int
		want  []string
	}{
		{write("same.json", 367, 0, "d1"), 0, []string{"same", "identical", "equal to 4 digits"}},
		{write("slow.json", 450, 0, "d2"), 1, []string{"worse", "differs"}},
		{write("fails.json", 365, 0.001, "d1"), 1, []string{"op_fail_ratio", "worse"}},
	} {
		var out bytes.Buffer
		if code := compareMain([]string{base, c.other}, &out); code != c.code {
			t.Errorf("compare %s: exit %d, want %d\n%s", c.other, code, c.code, out.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("compare %s: output lacks %q\n%s", c.other, w, out.String())
			}
		}
	}
}
