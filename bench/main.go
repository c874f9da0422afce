// Command bench is the repository's benchmark: four fixed workloads on
// the deterministic two-host testbed, each measured on both clocks —
// model (virtual time, exact for a seed) and host (CPU clock and heap of
// the simulator) — with per-layer counts taken from outside the program,
// an isolated cost ladder per layer, and a separate traced run.
//
//	go run ./bench                         every workload, then the ladder
//	go run ./bench -workload rpc_shared    one workload; last line is the driver's JSON
//	go run ./bench -trace 1                adds the traced run (spans, tracer hops, CPU profile)
//	go run ./bench -selfcheck              the harness reproduces BENCH_echo.json and its own digest
//	go run ./bench compare A.json B.json   parent-vs-change verdicts by the benchmark's bounds
//
// README.md in this directory defines every name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"
)

// resultSet is one invocation's output; -out appends one per line, so a
// file that several invocations wrote is a set of runs for compare.
type resultSet struct {
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Go        string    `json:"go"`
	MaxProcs  int       `json:"gomaxprocs"`
	Workloads []*result `json:"workloads"`
	Ladder    []metric  `json:"ladder,omitempty"`
}

// setupsPerRun is how often the untraced run sets up: set-up is one
// sample per world, so it is repeated and the median reported.
const setupsPerRun = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	seed := flag.Uint64("seed", 4242, "feeds WorldConfig.Seed and the load generator, nothing else")
	name := flag.String("workload", "", "run one workload (default: all four, then the ladder)")
	trace := flag.Int("trace", 0, "1 adds the traced run: harness spans, tracer hops, CPU profile by layer")
	seconds := flag.Float64("seconds", 10, "length of the measured period: about this many seconds on the reference box")
	out := flag.String("out", "", "append the JSON result to this file (default: print it)")
	outDir := flag.String("dir", filepath.Join("bench", "out"), "where the traced run writes spans and profiles")
	selfcheck := flag.Bool("selfcheck", false, "check the harness against BENCH_echo.json and its own determinism")
	flag.Parse()
	// The sim loop is one goroutine. A second P would only let the
	// collector run beside it: that hides allocation cost on an idle core
	// and, where the two vCPUs share a physical core, adds noise.
	runtime.GOMAXPROCS(1)
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *selfcheck {
		if err := selfCheck(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "selfcheck:", err)
			os.Exit(1)
		}
		return
	}

	todo := workloads
	if *name != "" {
		wl := workloadByName(*name)
		if wl == nil {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []*workload{wl}
	}
	set := resultSet{Seed: *seed, Seconds: *seconds, Go: runtime.Version(), MaxProcs: runtime.GOMAXPROCS(0)}
	var firstErr error
	for _, wl := range todo {
		res, err := measure(wl, *seed, *seconds, *trace == 1, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			if firstErr == nil {
				firstErr = err
			}
		}
		if res != nil {
			set.Workloads = append(set.Workloads, res)
			printResult(os.Stdout, res)
		}
	}
	// The ladder is workload-independent: once per full run, and in a
	// traced single-workload run (whose per-layer list includes it).
	if *name == "" || *trace == 1 {
		set.Ladder = runLadder(1)
		printMetrics(os.Stdout, "ladder (isolated drivers, host ns and allocations per unit)", set.Ladder)
		for _, r := range set.Workloads {
			printAttribution(os.Stdout, r, set.Ladder)
		}
	}

	line, err := json.Marshal(set)
	if err == nil && *out != "" {
		err = appendLine(*out, line)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *out == "" && *name == "" {
		fmt.Printf("%s\n", line)
	}
	if *name != "" && len(set.Workloads) == 1 {
		// The driver's contract: one JSON object, last line of stdout.
		fmt.Printf("%s\n", driverLine(set.Workloads[0], set.Ladder, *trace == 1))
	}
	if firstErr != nil {
		os.Exit(1)
	}
}

// measure runs one workload the way the flags ask. Untraced: set up
// setupsPerRun times, measure once. Traced: an untraced half-length run
// for the in-situ counts and the base of trace.overhead_frac, then the
// traced run of the same size; the result merges both.
func measure(wl *workload, seed uint64, seconds float64, traced bool, outDir string) (*result, error) {
	if !traced {
		return run(runConfig{wl: wl, seed: seed, sz: wl.sizes(seconds), setups: setupsPerRun})
	}
	sz := wl.sizes(seconds / 2)
	plain, err := run(runConfig{wl: wl, seed: seed, sz: sz, setups: 1})
	if err != nil {
		return plain, err
	}
	tr, err := run(runConfig{wl: wl, seed: seed, sz: sz, setups: 1, traced: true, outDir: outDir,
		baseUsPerOp: plain.value("host_us_per_op")})
	if err != nil {
		return tr, err
	}
	// In-situ counts come from the untraced run, never the traced one.
	for _, m := range tr.PerLayer {
		for _, d := range tracedDefs {
			if d.Name == m.Name {
				plain.PerLayer = append(plain.PerLayer, m)
			}
		}
	}
	plain.Traced = true
	return plain, nil
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// driverLine renders the one-line result the driver reads: every
// end-to-end metric of an untraced run, every per-layer metric of a
// traced one.
func driverLine(r *result, ladder []metric, traced bool) []byte {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	list := r.EndToEnd
	if traced {
		list = append(append([]metric{}, r.PerLayer...), ladder...)
	}
	for _, m := range list {
		ms[m.Name] = val{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{len(r.Violations) == 0 && r.OpsFailed == 0 && r.OpsAttempted > 0, r.OpsAttempted, r.OpsFailed, ms})
	if err != nil {
		panic(err) // a NaN or Inf metric: a bug in the harness
	}
	return line
}

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "\n== %s  seed %d  %d slices x %.3f ms virtual  traced=%v\n", r.Workload, r.Seed, r.Slices, r.SliceMs, r.Traced)
	fmt.Fprintf(w, "   ops_attempted %d  ops_failed %d  op_fail_ratio %g  ops_measured %d  model_digest %s\n",
		r.OpsAttempted, r.OpsFailed, r.OpFailRatio, r.OpsMeasured, r.ModelDigest)
	fmt.Fprintf(w, "   measured period: %.2f s wall, %.2f s cpu; slice us/op %.4g\n", r.PeriodWallS, r.PeriodCPUS, r.SliceUsPerOp)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "   VIOLATION: %s\n", v)
	}
	printMetrics(w, "end to end", r.EndToEnd)
	printMetrics(w, "per layer", r.PerLayer)
}

func printMetrics(w io.Writer, title string, ms []metric) {
	if len(ms) == 0 {
		return
	}
	fmt.Fprintf(w, "-- %s\n", title)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for _, m := range ms {
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("n=%d", m.Samples)
		}
		fmt.Fprintf(tw, "   %s\t%s\t%.6g\t%s\n", m.Name, m.Unit, m.Value, samples)
	}
	tw.Flush()
}

// attribution pairs a ladder cost with the in-situ count of the units it
// is paid for, so that no unit is charged twice. Nested rungs appear once:
// ring ⊂ queue move ⊂ engine pump by the outermost, the stack pair by its
// parts. The framing rungs are measured at MSS size and their cost is per
// byte (checksum, copy), so they are charged per MSS of payload. The link,
// switch and CPU rungs include their own events on a loop as deep as the
// workloads', so the loop rung is charged only for the remaining events.
var attribution = []struct {
	cost  string
	count string
	per   func(r *result) float64
}{
	{"engine.pump_ns_per_nqe", "engine.nqes_per_op", nil},
	{"tcp.conn_ns_per_seg", "tcp.segs_in_per_op", nil},
	{"tcp.wire_ns_per_seg", "payload MSS per op", mssPerOp},
	{"ipv4.ns_per_pkt", "payload MSS per op", mssPerOp},
	{"ethernet.ns_per_frame", "payload MSS per op", mssPerOp},
	{"vswitch.ns_per_frame", "vswitch.frames_per_op", nil},
	{"netsim.link_ns_per_frame", "netsim.wire_frames_per_op", nil},
	{"netsim.cpu_ns_per_dispatch", "stack.frames_per_op", nil},
	{"sim.loop_ns_per_event", "events outside link, switch, cpu", func(r *result) float64 {
		return r.value("sim.events_per_op") - 2*r.value("netsim.wire_frames_per_op") -
			r.value("vswitch.frames_per_op") - r.value("stack.frames_per_op")
	}},
}

func mssPerOp(r *result) float64 {
	return r.value("tcp.payload_bytes_per_seg") * r.value("tcp.segs_in_per_op") / segPayload
}

// printAttribution prints Σ (ladder cost × the layer's count per op)
// against host_us_per_op, and the remainder no rung explains: guestlib,
// servicelib, the stack's own demux, timers, GC, the load generator.
func printAttribution(w io.Writer, r *result, ladder []metric) {
	cost := map[string]float64{}
	for _, m := range ladder {
		cost[m.Name] = m.Value
	}
	total := r.value("host_us_per_op")
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "-- %s: host_us_per_op %.3f us attributed by ladder cost x count per op\n", r.Workload, total)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	var sum float64
	for _, a := range attribution {
		n := r.value(a.count)
		if a.per != nil {
			n = a.per(r)
		}
		us := cost[a.cost] * n / 1e3
		sum += us
		fmt.Fprintf(tw, "   %s\tx %s\t%.1f ns x %.2f\t%.3f us\t%.1f%%\n", a.cost, a.count, cost[a.cost], n, us, 100*us/total)
	}
	fmt.Fprintf(tw, "   unattributed\t\t\t%.3f us\t%.1f%%\n", total-sum, 100*(total-sum)/total)
	tw.Flush()
}
