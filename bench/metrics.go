package main

import (
	"math"
	"sort"
	"strings"
)

// def names one metric. The tables below are the benchmark's contract:
// BENCHMARK.json lists the same names, units and directions (bench_test
// asserts it), and later issues refer to these names verbatim.
type def struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is, for an end-to-end metric, the share of the base value by
	// which it may worsen before compare calls it a regression. compare
	// sets runs of the same seed side by side, where every count and every
	// model metric repeats exactly, so these are tight.
	Bound float64
	// Lossy is the looser bound compare applies on lossy_bulk, whose
	// model metrics ride a random loss pattern; 0 means Bound.
	Lossy float64
	// Driver is the bound BENCHMARK.json carries. The driver draws another
	// seed for every run and accepts a bound only if the spread of ten such
	// runs stays inside it (a third of it, ideally), so this one must also
	// cover what differs between seeds and, on the host clock, between
	// quiet and busy moments of a shared box. One value for all workloads.
	Driver float64
	// Moves says, for a per-layer metric, which end-to-end metric it is
	// expected to move and on which workload.
	Moves string
}

// endToEnd lists what a user of the system sees, on both clocks: model =
// virtual time (exact for a seed), host = CPU clock and heap of the
// simulator. op_fail_ratio is the tenth; it is carried by the result's
// attempted/failed counts because it is 0 on every accepted run and a
// bounded metric may never be 0.
var endToEnd = []def{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.20, Driver: 0.25},
	{Name: "model_goodput_gbps", Unit: "Gbit/s", Better: "higher", Bound: 0.02, Lossy: 0.05, Driver: 0.08},
	{Name: "model_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.02, Lossy: 0.05, Driver: 0.08},
	{Name: "model_lat_p50_us", Unit: "us", Better: "lower", Bound: 0.02, Lossy: 0.05, Driver: 0.08},
	{Name: "model_lat_p999_us", Unit: "us", Better: "lower", Bound: 0.05, Lossy: 0.10, Driver: 0.12},
	{Name: "host_us_per_op", Unit: "us", Better: "lower", Bound: 0.10, Driver: 0.25},
	{Name: "host_allocs_per_op", Unit: "count", Better: "lower", Bound: 0.01, Driver: 0.06},
	{Name: "host_alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.01, Driver: 0.05},
	{Name: "host_live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.05, Driver: 0.05},
}

// boundFor returns the regression bound of an end-to-end metric on a
// workload.
func boundFor(d def, workload string) float64 {
	if workload == "lossy_bulk" && d.Lossy > 0 {
		return d.Lossy
	}
	return d.Bound
}

// inSitu lists the per-layer counts every run takes from outside the
// program: registry, Stats() and LinkStats deltas over the measured
// period, divided by the ops completed in it.
var inSitu = []def{
	{Name: "guestlib.nqes_per_op", Unit: "count", Better: "lower", Moves: "host_us_per_op, model_lat_p50_us on rpc_shared, short_flows; none on lossy_bulk"},
	{Name: "guestlib.events_per_op", Unit: "count", Better: "lower", Moves: "host_us_per_op on rpc_shared, short_flows"},
	{Name: "guestlib.credit_stalls_per_op", Unit: "count", Better: "lower", Moves: "model_goodput_gbps on bulk_echo"},
	{Name: "guestlib.events_per_wakeup", Unit: "count", Better: "higher", Moves: "host_us_per_op on rpc_shared"},
	{Name: "guestlib.tx_copies_per_byte", Unit: "count", Better: "lower", Moves: "host_alloc_kb_per_op on bulk_echo"},
	{Name: "guestlib.rx_copies_per_byte", Unit: "count", Better: "lower", Moves: "host_alloc_kb_per_op on bulk_echo"},
	{Name: "nkqueue.elems_per_op", Unit: "count", Better: "lower", Moves: "host_us_per_op on rpc_shared; none on bulk_echo"},
	{Name: "nkqueue.depth_end", Unit: "count", Better: "lower", Moves: "host_live_heap_mb on rpc_shared"},
	{Name: "nkqueue.conservation_err", Unit: "count", Better: "lower", Moves: "op_fail_ratio everywhere (must be 0)"},
	{Name: "shm.doorbell_rings_per_op", Unit: "count", Better: "lower", Moves: "model_lat_p50_us, host_us_per_op on rpc_shared"},
	{Name: "shm.wakeups_per_ring", Unit: "count", Better: "lower", Moves: "model_lat_p50_us, host_us_per_op on rpc_shared"},
	{Name: "shm.live_refs_end", Unit: "count", Better: "lower", Moves: "op_fail_ratio everywhere (must be 0)"},
	{Name: "engine.nqes_per_op", Unit: "count", Better: "lower", Moves: "host_us_per_op on rpc_shared, short_flows"},
	{Name: "engine.translated_per_op", Unit: "count", Better: "lower", Moves: "host_us_per_op on rpc_shared, short_flows"},
	{Name: "engine.discarded", Unit: "count", Better: "lower", Moves: "op_fail_ratio everywhere"},
	{Name: "engine.bad_elements", Unit: "count", Better: "lower", Moves: "op_fail_ratio everywhere (must be 0)"},
	{Name: "servicelib.jobs_per_op", Unit: "count", Better: "lower", Moves: "host_us_per_op on rpc_shared"},
	{Name: "servicelib.ids_per_ready_event", Unit: "count", Better: "higher", Moves: "host_us_per_op on rpc_shared"},
	{Name: "servicelib.tx_copies_per_byte", Unit: "count", Better: "lower", Moves: "host_alloc_kb_per_op on bulk_echo"},
	{Name: "servicelib.rx_copies_per_byte", Unit: "count", Better: "lower", Moves: "host_alloc_kb_per_op on bulk_echo (rx copy)"},
	{Name: "stack.frames_per_op", Unit: "count", Better: "lower", Moves: "host_allocs_per_op on short_flows (tables), bulk_echo (per-frame make)"},
	{Name: "stack.drops", Unit: "count", Better: "lower", Moves: "op_fail_ratio everywhere"},
	{Name: "tcp.segs_in_per_op", Unit: "count", Better: "lower", Moves: "host_us_per_op on bulk_echo"},
	{Name: "tcp.payload_bytes_per_seg", Unit: "B", Better: "higher", Moves: "host_us_per_op on bulk_echo; none on rpc_shared"},
	{Name: "tcp.retrans_frac", Unit: "ratio", Better: "lower", Moves: "model_goodput_gbps, model_lat_p999_us on lossy_bulk"},
	{Name: "tcp.tx_copies_per_byte", Unit: "count", Better: "lower", Moves: "host_us_per_op on bulk_echo"},
	{Name: "tcp.rx_copies_per_byte", Unit: "count", Better: "lower", Moves: "host_us_per_op on lossy_bulk (OOO copy fallback)"},
	{Name: "vswitch.frames_per_op", Unit: "count", Better: "lower", Moves: "host_us_per_op on bulk_echo, lossy_bulk (small share)"},
	{Name: "vswitch.flooded", Unit: "count", Better: "lower", Moves: "host_allocs_per_op everywhere (flood copies)"},
	{Name: "vswitch.dropped", Unit: "count", Better: "lower", Moves: "op_fail_ratio everywhere"},
	{Name: "netsim.wire_frames_per_op", Unit: "count", Better: "lower", Moves: "explains model_goodput_gbps"},
	{Name: "netsim.loss_drop_frac", Unit: "ratio", Better: "lower", Moves: "explains model_* on lossy_bulk"},
	{Name: "netsim.queue_drop_frac", Unit: "ratio", Better: "lower", Moves: "explains model_* on lossy_bulk"},
	{Name: "netsim.max_queue_kb", Unit: "KiB", Better: "lower", Moves: "explains model_lat_p999_us"},
	{Name: "netsim.link_util", Unit: "ratio", Better: "higher", Moves: "explains model_goodput_gbps: the link binds when near 1"},
	{Name: "netsim.nsm_cpu_util", Unit: "ratio", Better: "lower", Moves: "explains model_ops_per_s: a core binds when near 1 (rpc_shared, bulk_echo)"},
	{Name: "sim.events_per_op", Unit: "count", Better: "lower", Moves: "host_us_per_op on all four, most on lossy_bulk"},
	{Name: "sim.events_per_frame", Unit: "count", Better: "lower", Moves: "host_us_per_op on all four"},
	{Name: "sim.pending_end", Unit: "count", Better: "lower", Moves: "host_live_heap_mb on bulk_echo, short_flows (dead timers)"},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower", Moves: "host_us_per_op on all four"},
	{Name: "sim.virt_ms_per_wall_s", Unit: "ms/s", Better: "higher", Moves: "host_us_per_op on all four"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "follows host_alloc_kb_per_op; most on short_flows"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Moves: "follows host_allocs_per_op; most on short_flows"},
	{Name: "runtime.cpu_us_per_op", Unit: "us", Better: "lower", Moves: "host_us_per_op on all four"},
	{Name: "runtime.heap_sys_mb", Unit: "MiB", Better: "lower", Moves: "host_live_heap_mb"},
}

// ladderLayers lists the isolated drivers in ladder.go; each yields
// <name> in wall ns per unit and its twin with "ns" replaced by "allocs".
var ladderLayers = []string{
	"shm.ring_ns_per_nqe",
	"shm.pages_ns_per_chunk",
	"nqe.codec_ns_per_nqe",
	"nkqueue.move_ns_per_nqe",
	"engine.pump_ns_per_nqe",
	"tcp.wire_ns_per_seg",
	"tcp.conn_ns_per_seg",
	"ipv4.ns_per_pkt",
	"ethernet.ns_per_frame",
	"stack.pair_ns_per_seg",
	"vswitch.ns_per_frame",
	"netsim.link_ns_per_frame",
	"netsim.cpu_ns_per_dispatch",
	"sim.loop_ns_per_event",
	"sim.timer_ns_per_arm_stop",
	"telemetry.ns_per_count",
}

// tracedDefs lists what only the traced run yields: harness spans, the
// program's own virtual-time tracer, and the CPU profile folded by the
// package of the leaf frame.
var tracedDefs = []def{
	{Name: "guestlib.send_ns_p50", Unit: "ns", Better: "lower", Moves: "host_us_per_op on rpc_shared"},
	{Name: "guestlib.recv_ns_p50", Unit: "ns", Better: "lower", Moves: "host_us_per_op on rpc_shared"},
	{Name: "guestlib.connect_ns_p50", Unit: "ns", Better: "lower", Moves: "host_us_per_op on short_flows"},
	{Name: "guestlib.close_ns_p50", Unit: "ns", Better: "lower", Moves: "host_us_per_op on short_flows"},
	{Name: "guestlib.api_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on rpc_shared, short_flows"},
	{Name: "trace.tx_guest_to_engine_ns", Unit: "ns", Better: "lower", Moves: "model_lat_p50_us on rpc_shared"},
	{Name: "trace.tx_engine_to_svc_ns", Unit: "ns", Better: "lower", Moves: "model_lat_p50_us on rpc_shared"},
	{Name: "trace.tx_svc_to_stack_ns", Unit: "ns", Better: "lower", Moves: "model_lat_p50_us on bulk_echo"},
	{Name: "trace.rx_svc_to_engine_ns", Unit: "ns", Better: "lower", Moves: "model_lat_p50_us on rpc_shared"},
	{Name: "trace.rx_engine_to_guest_ns", Unit: "ns", Better: "lower", Moves: "model_lat_p50_us on rpc_shared"},
	{Name: "trace.spans_completed", Unit: "count", Better: "higher", Moves: "none (coverage of the tracer)"},
	{Name: "trace.spans_dropped", Unit: "count", Better: "lower", Moves: "none (coverage of the tracer)"},
	{Name: "guestlib.cpu_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on rpc_shared, short_flows"},
	{Name: "nkqueue.cpu_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on rpc_shared"},
	{Name: "shm.cpu_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on rpc_shared"},
	{Name: "engine.cpu_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on rpc_shared, short_flows"},
	{Name: "servicelib.cpu_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on rpc_shared"},
	{Name: "stack.cpu_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on short_flows"},
	{Name: "tcp.cpu_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on bulk_echo"},
	{Name: "framing.cpu_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on bulk_echo"},
	{Name: "vswitch.cpu_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on bulk_echo, lossy_bulk"},
	{Name: "netsim.cpu_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on lossy_bulk"},
	{Name: "sim.cpu_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on all four, most on lossy_bulk"},
	{Name: "telemetry.cpu_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on rpc_shared"},
	{Name: "runtime.mem_cpu_frac", Unit: "ratio", Better: "lower", Moves: "host_us_per_op on short_flows, bulk_echo"},
	{Name: "harness.cpu_frac", Unit: "ratio", Better: "lower", Moves: "none (the load generator itself and unclassified runtime)"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Moves: "none (cost of tracing)"},
}

// allocsTwin names a ladder driver's allocation metric: the same name
// with "ns" replaced by "allocs".
func allocsTwin(name string) string {
	return strings.Replace(name, "ns_per", "allocs_per", 1)
}

// ladderDefs expands ladderLayers into its 32 metrics.
func ladderDefs() []def {
	var out []def
	for _, n := range ladderLayers {
		out = append(out,
			def{Name: n, Unit: "ns", Better: "lower", Moves: "host_us_per_op where the layer's count per op is highest"},
			def{Name: allocsTwin(n), Unit: "count", Better: "lower", Moves: "host_allocs_per_op where the layer's count per op is highest"})
	}
	return out
}

// perLayerDefs is every per-layer metric, in the order BENCHMARK.json
// lists them.
func perLayerDefs() []def {
	out := append([]def{}, inSitu...)
	out = append(out, ladderDefs()...)
	return append(out, tracedDefs...)
}

// metric is one reported value.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	// Samples is the sample count behind a percentile or a median.
	Samples int `json:"samples,omitempty"`
}

// values pairs a definition table with measured numbers; a name the
// table lacks is a bug in the harness, so it panics.
type values struct {
	defs []def
	vals map[string]metric
}

func newValues(defs []def) *values {
	return &values{defs: defs, vals: make(map[string]metric, len(defs))}
}

func (v *values) set(name string, x float64) { v.setN(name, x, 0) }

func (v *values) setN(name string, x float64, samples int) {
	for _, d := range v.defs {
		if d.Name == name {
			v.vals[name] = metric{Name: name, Unit: d.Unit, Value: x, Samples: samples}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// list returns the measured metrics in table order.
func (v *values) list() []metric {
	out := make([]metric, 0, len(v.vals))
	for _, d := range v.defs {
		if m, ok := v.vals[d.Name]; ok {
			out = append(out, m)
		}
	}
	return out
}

// percentile returns the nearest-rank q-quantile of sorted (ascending)
// samples: the smallest value with at least q of the samples at or below
// it. At q = 0.999, 15 000 samples leave 15 beyond it.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// p50 returns the nearest-rank median of samples (in any order) and their
// count.
func p50(samples []int64) (float64, int) {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(percentile(s, 0.50)), len(s)
}

// median returns the middle value (mean of the two middle ones for an
// even count). The wall metric is the median slice: one slow slice — a
// GC cycle, a noisy neighbour — moves a whole-run mean but not this.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns Q1 and Q3 the way Python's statistics.quantiles(xs,
// n=4) does (exclusive method), so spreads match the acceptance check.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
