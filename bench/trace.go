package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"

	"netkernel/internal/experiments"
	"netkernel/internal/hypervisor"
	"netkernel/internal/telemetry"
)

// tracerHarvest gathers the program's own virtual-time spans. Each host's
// tracer retains only its last 256 finished spans, so the traced run
// collects after every slice and keeps the hop intervals.
type tracerHarvest struct {
	seen [2]uint32          // highest span id collected per host
	hops map[string][]int64 // virtual ns between consecutive hops, by metric
}

func newTracerHarvest() *tracerHarvest { return &tracerHarvest{hops: make(map[string][]int64)} }

// hopMetrics names the interval that ends at a hop, by the hop before it.
var hopMetrics = map[[2]string]string{
	{"guestlib.enqueue", "engine.vm-pump"}:    "trace.tx_guest_to_engine_ns",
	{"engine.vm-pump", "servicelib.dispatch"}: "trace.tx_engine_to_svc_ns",
	{"servicelib.dispatch", "stack.tx"}:       "trace.tx_svc_to_stack_ns",
	{"servicelib.emit", "engine.nsm-pump"}:    "trace.rx_svc_to_engine_ns",
	{"engine.nsm-pump", "guestlib.deliver"}:   "trace.rx_engine_to_guest_ns",
}

func (t *tracerHarvest) collect(w *experiments.World) {
	for i, h := range []*hypervisor.Host{w.H1, w.H2} {
		top := t.seen[i]
		for _, sp := range h.Tracer.Completed() {
			if sp.ID <= t.seen[i] {
				continue
			}
			if sp.ID > top {
				top = sp.ID
			}
			for j := 1; j < len(sp.Hops); j++ {
				if name, ok := hopMetrics[[2]string{sp.Hops[j-1].Name, sp.Hops[j].Name}]; ok {
					t.hops[name] = append(t.hops[name], int64(sp.Hops[j].At-sp.Hops[j-1].At))
				}
			}
		}
		t.seen[i] = top
	}
}

// spansStarted asks a tracer how many spans it ever opened: ids are
// sequential, so the id of one more span — opened and dropped here, after
// the run — is the count plus one.
func spansStarted(tr *telemetry.Tracer) float64 {
	tr.SetSampleEvery(1)
	id := tr.Start("bench.probe")
	tr.Drop(id)
	tr.SetSampleEvery(0)
	if id == 0 {
		return 0
	}
	return float64(id - 1)
}

// tracedMetrics fills in what only the traced run yields.
func tracedMetrics(pl *values, rec *recorder, th *tracerHarvest, w *experiments.World, profile string) error {
	for api, name := range map[int]string{
		apiSend: "guestlib.send_ns_p50", apiRecv: "guestlib.recv_ns_p50",
		apiConnect: "guestlib.connect_ns_p50", apiClose: "guestlib.close_ns_p50",
	} {
		v, n := p50(rec.dur[api])
		pl.setN(name, v, n)
	}
	pl.set("guestlib.api_frac", rec.apiFrac())

	for _, name := range hopMetrics {
		v, n := p50(th.hops[name])
		pl.setN(name, v, n)
	}
	var completed, started float64
	for _, h := range []*hypervisor.Host{w.H1, w.H2} {
		for name, hs := range h.Snapshot().Histograms {
			if strings.HasPrefix(name, "trace.span.") {
				completed += float64(hs.Count)
			}
		}
		started += spansStarted(h.Tracer) - float64(h.Tracer.ActiveCount())
	}
	pl.set("trace.spans_completed", completed)
	pl.set("trace.spans_dropped", started-completed)

	fracs, err := foldProfile(profile)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, c := range cpuClasses {
		pl.set(c+".cpu_frac", fracs[c])
	}
	pl.set("runtime.mem_cpu_frac", fracs["runtime.mem"])
	return nil
}

// cpuClasses are the layers the CPU profile is folded into (plus
// runtime.mem). harness takes the load generator and everything the
// other classes do not claim — scheduler, maps, syscalls — so the shares
// sum to 1.
var cpuClasses = []string{"guestlib", "nkqueue", "shm", "engine", "servicelib", "stack", "tcp",
	"framing", "vswitch", "netsim", "sim", "telemetry", "harness"}

var pkgClass = map[string]string{
	"netkernel/internal/guestlib":       "guestlib",
	"netkernel/internal/nkqueue":        "nkqueue",
	"netkernel/internal/nkchan":         "nkqueue",
	"netkernel/internal/nqe":            "nkqueue",
	"netkernel/internal/shm":            "shm",
	"netkernel/internal/hypervisor":     "engine",
	"netkernel/internal/servicelib":     "servicelib",
	"netkernel/internal/sched":          "servicelib",
	"netkernel/internal/stack":          "stack",
	"netkernel/internal/proto/tcp":      "tcp",
	"netkernel/internal/tcpcc":          "tcp",
	"netkernel/internal/proto/ipv4":     "framing",
	"netkernel/internal/proto/ethernet": "framing",
	"netkernel/internal/proto/inet":     "framing",
	"netkernel/internal/proto/arp":      "framing",
	"encoding/binary":                   "framing",
	"netkernel/internal/vswitch":        "vswitch",
	"netkernel/internal/netsim":         "netsim",
	"netkernel/internal/sim":            "sim",
	"container/heap":                    "sim",
	"netkernel/internal/telemetry":      "telemetry",
	"sync/atomic":                       "telemetry",
}

// memFuncs marks the runtime's allocation, clearing, copying and GC
// functions by substrings of their names.
var memFuncs = []string{"malloc", "memclr", "memmove", "gc", "GC", "scan", "sweep", "mark", "alloc",
	"greyobject", "wbBuf", "heapBits", "span", "mcache", "mcentral", "mheap", "findObject", "typePointers", "bulkBarrier"}

// classify maps a leaf function to its class.
func classify(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop type arguments, which may hold dots and slashes
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if c, ok := pkgClass[pkg]; ok {
		return c
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") {
		for _, m := range memFuncs {
			if strings.Contains(fn[len(pkg):], m) {
				return "runtime.mem"
			}
		}
	}
	return "harness"
}

// foldProfile reads a CPU profile and returns each class's share of the
// sampled CPU time, by the package of each sample's leaf frame.
func foldProfile(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	// The few fields of profile.proto the fold needs: each sample's leaf
	// location and last value (cpu ns), each location's innermost line,
	// each function's name.
	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	locFunc := map[uint64]uint64{}  // location id → function id of its innermost (inlined) frame
	funcName := map[uint64]uint64{} // function id → string table index
	var strs []string
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, leaf first
					ids := packed(v, b)
					if first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2: // value: [samples, cpu ns]
					if vals := packed(v, b); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			gotLine := false
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined function
					if !gotLine {
						gotLine = true
						return eachField(b, func(num int, v uint64, _ []byte) error {
							if num == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; int(i) < len(strs) {
			name = strs[i]
		}
		out[classify(name)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, fmt.Errorf("no samples in %s", path)
	}
	for k := range out {
		out[k] /= total
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad protobuf key")
		}
		b = b[n:]
		var v uint64
		var payload []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return fmt.Errorf("bad protobuf varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad protobuf length")
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, payload); err != nil {
			return err
		}
	}
	return nil
}

// packed returns a repeated varint field's values, whether it arrived
// packed (bytes) or as one bare varint.
func packed(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
