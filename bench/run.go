package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"netkernel/internal/experiments"
	"netkernel/internal/hypervisor"
	"netkernel/internal/netsim"
	"netkernel/internal/telemetry"
)

// traceSampleEvery is the program's own tracer's sampling interval in
// the traced run.
const traceSampleEvery = 64

// result is one workload's run.
type result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`
	// Ops: attempted counts every op that ended — or should have — after
	// the measured period began; failed the ones that errored, timed out
	// or returned wrong bytes. op_fail_ratio = failed / attempted.
	OpsAttempted uint64  `json:"ops_attempted"`
	OpsFailed    uint64  `json:"ops_failed"`
	OpFailRatio  float64 `json:"op_fail_ratio"`
	// OpsMeasured completed inside the measured period; the per-op
	// metrics divide by it.
	OpsMeasured uint64  `json:"ops_measured"`
	Slices      int     `json:"slices"`
	SliceMs     float64 `json:"slice_virtual_ms"`
	// SliceUsPerOp is each slice's host_us_per_op; PeriodWallS and
	// PeriodCPUS are the measured period on the wall clock and on the
	// process's CPU clock. They differ when the box steals the CPU.
	SliceUsPerOp []float64 `json:"slice_us_per_op"`
	PeriodWallS  float64   `json:"period_wall_s"`
	PeriodCPUS   float64   `json:"period_cpu_s"`
	// ModelDigest hashes every model-clock quantity read: same seed and
	// sizes give the same digest, whatever the host did.
	ModelDigest string   `json:"model_digest"`
	EndToEnd    []metric `json:"end_to_end"`
	PerLayer    []metric `json:"per_layer"`
	Violations  []string `json:"violations,omitempty"`
}

func (r *result) value(name string) float64 {
	for _, list := range [][]metric{r.EndToEnd, r.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Value
			}
		}
	}
	return 0
}

// probe is everything read from outside the program at one instant.
type probe struct {
	reg       [2]telemetry.Snapshot
	links     [2]netsim.LinkStats
	coreBusy  []time.Duration // every NSM core's busy time, in NSM id order
	now       time.Duration
	processed uint64
	pending   int
}

func nsmsOf(h *hypervisor.Host) []*hypervisor.NSM {
	var out []*hypervisor.NSM
	h.EachNSM(func(n *hypervisor.NSM) { out = append(out, n) })
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func takeProbe(w *experiments.World) probe {
	p := probe{
		reg:       [2]telemetry.Snapshot{w.H1.Snapshot(), w.H2.Snapshot()},
		links:     [2]netsim.LinkStats{w.L12.Stats(), w.L21.Stats()},
		now:       w.Loop.Now().Duration(),
		processed: w.Loop.Processed(),
		pending:   w.Loop.Pending(),
	}
	for _, h := range []*hypervisor.Host{w.H1, w.H2} {
		for _, n := range nsmsOf(h) {
			for c := 0; c < n.CPU.Cores(); c++ {
				p.coreBusy = append(p.coreBusy, n.CPU.BusyTime(c))
			}
		}
	}
	return p
}

// sum adds, over both hosts, every counter and gauge whose name ends in
// one of the suffixes.
func (p *probe) sum(suffixes ...string) float64 {
	var total float64
	match := func(name string) bool {
		for _, s := range suffixes {
			if strings.HasSuffix(name, s) {
				return true
			}
		}
		return false
	}
	for _, s := range p.reg {
		for name, v := range s.Counters {
			if match(name) {
				total += float64(v)
			}
		}
		for name, v := range s.Gauges {
			if match(name) {
				total += float64(v)
			}
		}
	}
	return total
}

// conservationErr is Σ |pushed − popped − depth| over every queue.
func (p *probe) conservationErr() float64 {
	var total float64
	for _, s := range p.reg {
		for name, pushed := range s.Gauges {
			if q, ok := strings.CutSuffix(name, ".pushed"); ok {
				d := pushed - s.Gauges[q+".popped"] - s.Gauges[q+".depth"]
				if d < 0 {
					d = -d
				}
				total += float64(d)
			}
		}
	}
	return total
}

// hash folds every model-clock quantity of the probe into h.
func (p *probe) hash(h interface{ Write([]byte) (int, error) }) {
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(p.now))
	put(p.processed)
	put(uint64(p.pending))
	for _, s := range p.reg {
		names := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
		for n := range s.Counters {
			names = append(names, n)
		}
		for n := range s.Gauges {
			names = append(names, n)
		}
		for n := range s.Histograms {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			h.Write([]byte(n))
			if v, ok := s.Counters[n]; ok {
				put(v)
			}
			if v, ok := s.Gauges[n]; ok {
				put(uint64(v))
			}
			if hs, ok := s.Histograms[n]; ok {
				put(hs.Count)
				put(hs.Sum)
				put(hs.Max)
			}
		}
	}
	for _, l := range p.links {
		for _, v := range []uint64{l.Offered, l.TxFrames, l.TxBytes, l.LossDrops, l.QueueDrops, l.DownDrops,
			l.ECNMarks, uint64(l.MaxQueue), l.DupFrames, l.CorruptFrames, l.ReorderedFrames} {
			put(v)
		}
	}
	for _, b := range p.coreBusy {
		put(uint64(b))
	}
}

// hostProbe is the host clock's side: heap, GC and CPU of the simulator.
type hostProbe struct {
	mem      runtime.MemStats
	cpu      time.Duration // rusage user+sys
	gcCPU    float64       // seconds
	totalCPU float64
}

// cpuNow reads the host clock every timing in the benchmark uses: the
// CPU time (user + system) this process has consumed. Not the wall clock:
// on a shared box the hypervisor takes the vCPU away for tens of
// milliseconds at a time, which the wall clock charges to the code under
// test and the CPU clock mostly does not. The loop runs on one goroutine
// with GOMAXPROCS 1 and never blocks, so on a quiet box the two agree.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func takeHostProbe() hostProbe {
	var hp hostProbe
	runtime.ReadMemStats(&hp.mem)
	hp.cpu = cpuNow()
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		hp.gcCPU, hp.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	return hp
}

// runConfig selects one run of one workload.
type runConfig struct {
	wl     *workload
	seed   uint64
	sz     sizes
	traced bool
	// setups is how many times the set-up is done and timed; the run
	// measures on the last and reports the median.
	setups int
	outDir string // where the traced run writes its spans and profile
	// exact turns the load generator's randomness off (selfcheck).
	exact bool
	// baseUsPerOp is the untraced run's host_us_per_op, the base of the
	// traced run's trace.overhead_frac.
	baseUsPerOp float64
}

// setUp builds the world, boots the NSMs, opens the connections and runs
// the warm-up: everything whose time is setup_s.
func setUp(c runConfig, rec *recorder) (*bed, *load, error) {
	traceEvery := 0
	if c.traced {
		traceEvery = traceSampleEvery
	}
	rec.begin("setup")
	defer rec.end()

	rec.begin("world.build")
	b := c.wl.world(c.seed, traceEvery)
	ld := newLoad(b.w.Loop, c.seed, rec)
	ld.exact = c.exact
	rec.end()

	// Let the NSM VMs boot before opening sockets: ops issued before the
	// module serves its queues would stall.
	rec.begin("nsm.boot")
	b.w.Loop.RunFor(b.clients[0].NSM.Profile.BootTime + 50*time.Millisecond)
	rec.end()

	// Connecting counts against the warm-up, as in the experiments the
	// scenarios come from: the measured period starts warm-up after boot.
	rec.begin("connect")
	c.wl.start(b, ld)
	spent := time.Duration(0)
	for ; spent < 100*time.Millisecond && ld.established < ld.conns; spent += time.Millisecond {
		b.w.Loop.RunFor(time.Millisecond)
	}
	rec.end()
	if ld.established < ld.conns {
		return nil, nil, fmt.Errorf("%d of %d connections established", ld.established, ld.conns)
	}

	rec.begin("warmup")
	if c.sz.warmup > spent {
		b.w.Loop.RunFor(c.sz.warmup - spent)
	}
	rec.end()
	return b, ld, nil
}

// period is everything read over the measured period.
type period struct {
	p0, p1   probe     // model side, before and after
	h0, h1   hostProbe // host side, before and after
	liveHeap uint64    // HeapAlloc after a collection at the end of the period
	ops      uint64    // ops completed inside the period
	payload  uint64    // verified payload bytes delivered inside it
	usPerOp  []float64 // host µs per op of each slice
	wall     time.Duration
	cpu      time.Duration
}

func (m *period) virt() time.Duration { return m.p1.now - m.p0.now }

// measurePeriod runs the S equal slices of virtual time, each one
// Loop.RunFor. onSlice (may be nil) runs after each, outside the timing.
func measurePeriod(w *experiments.World, ld *load, sz sizes, rec *recorder, onSlice func()) *period {
	m := &period{}
	runtime.GC()
	done0, payload0 := ld.done, ld.payload
	ld.measuring = true
	m.p0, m.h0 = takeProbe(w), takeHostProbe()
	for i := 0; i < sz.slices; i++ {
		ops0 := ld.done
		rec.begin("slice")
		w0, c0 := time.Now(), cpuNow()
		w.Loop.RunFor(sz.slice)
		d := cpuNow() - c0
		m.wall += time.Since(w0)
		rec.end()
		m.cpu += d
		if n := ld.done - ops0; n > 0 {
			m.usPerOp = append(m.usPerOp, float64(d.Nanoseconds())/1e3/float64(n))
		}
		if onSlice != nil {
			onSlice()
		}
	}
	m.h1, m.p1 = takeHostProbe(), takeProbe(w)
	ld.measuring = false
	m.ops, m.payload = ld.done-done0, ld.payload-payload0
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	m.liveHeap = live.HeapAlloc
	return m
}

// drain tears the workload down: clients finish what is in flight and
// close, then the listeners close, then the world runs to quiescence.
func drain(w *experiments.World, ld *load) {
	ld.stopping = true
	for _, stop := range ld.stops {
		stop()
	}
	for i := 0; i < 300 && ld.started > ld.done+ld.failed; i++ {
		w.Loop.RunFor(10 * time.Millisecond)
	}
	for _, cl := range ld.closers {
		cl()
	}
	// A closed connection's fd↔cID entry outlives it by the engine's
	// mapping grace (2 s); TIME_WAIT (2·MSL = 200 ms) ends well inside it.
	for i := 0; i < 400 && w.H1.Engine.Mappings()+w.H2.Engine.Mappings() > 0; i++ {
		w.Loop.RunFor(10 * time.Millisecond)
	}
	w.Loop.RunFor(100 * time.Millisecond)
}

// run executes one workload once and reports it. An error means the
// oracle was violated or the run could not be made; the result (when
// non-nil) still carries what was measured.
func run(c runConfig) (*result, error) {
	var rec *recorder
	if c.traced {
		rec = newRecorder()
	}
	res := &result{Workload: c.wl.name, Seed: c.seed, Traced: c.traced, Slices: c.sz.slices,
		SliceMs: float64(c.sz.slice) / float64(time.Millisecond)}
	fail := func(format string, args ...any) (*result, error) {
		return res, fmt.Errorf("workload %s seed %d: %s", c.wl.name, c.seed, fmt.Sprintf(format, args...))
	}

	var b *bed
	var ld *load
	setupS := make([]float64, 0, c.setups)
	for i := 0; i < c.setups; i++ {
		b, ld = nil, nil
		runtime.GC() // each set-up starts from a collected heap, like the first
		t0 := cpuNow()
		var err error
		if b, ld, err = setUp(c, rec); err != nil {
			return fail("set-up: %v", err)
		}
		setupS = append(setupS, (cpuNow() - t0).Seconds())
	}
	w := b.w
	base := ld.done + ld.failed // ops that ended before the measured period

	var prof *os.File
	var harvest *tracerHarvest
	var onSlice func()
	if c.traced {
		if err := os.MkdirAll(c.outDir, 0o755); err != nil {
			return fail("%v", err)
		}
		var err error
		if prof, err = os.Create(filepath.Join(c.outDir, c.wl.name+".cpu.pprof")); err != nil {
			return fail("%v", err)
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return fail("cpu profile: %v", err)
		}
		harvest = newTracerHarvest()
		onSlice = func() { harvest.collect(w) }
	}
	m := measurePeriod(w, ld, c.sz, rec, onSlice)
	if c.traced {
		pprof.StopCPUProfile()
	}
	res.OpsMeasured = m.ops
	res.SliceUsPerOp, res.PeriodWallS, res.PeriodCPUS = m.usPerOp, m.wall.Seconds(), m.cpu.Seconds()
	if m.ops == 0 || len(m.usPerOp) < c.sz.slices {
		return fail("%d ops in %v of virtual time: a slice completed none", m.ops, m.virt())
	}

	rec.begin("drain")
	drain(w, ld)
	rec.end()

	// The oracle. Any violation anywhere in the run fails it, so failures
	// count from the start while attempts count from the measured period.
	rec.begin("verify")
	pEnd := takeProbe(w)
	never := uint64(0) // ops still in flight after the drain
	if ended := ld.done + ld.failed; ld.started > ended {
		never = ld.started - ended
		ld.violations = append(ld.violations, fmt.Sprintf("%d ops never completed", never))
	}
	res.OpsAttempted = ld.done + ld.failed + never - base
	res.OpsFailed = ld.failed + never
	res.OpFailRatio = ratio(float64(res.OpsFailed), float64(res.OpsAttempted))
	conns := 0
	for _, h := range []*hypervisor.Host{w.H1, w.H2} {
		for _, n := range nsmsOf(h) {
			conns += n.Stack.ConnCount()
		}
	}
	for _, chk := range []struct {
		name string
		v    float64
	}{
		{"shm.live_refs_end", pEnd.sum(".pages.live_refs")},
		{"nkqueue.conservation_err", m.p1.conservationErr() + pEnd.conservationErr()},
		{"engine.bad_elements", pEnd.sum("engine.bad_elements")},
		{"engine.mappings after drain", pEnd.sum("engine.mappings")},
		{"tcp connections after drain", float64(conns)},
	} {
		if chk.v != 0 {
			ld.violations = append(ld.violations, fmt.Sprintf("%s = %v, want 0", chk.name, chk.v))
		}
	}
	rec.end()

	// model_digest: every model-clock quantity read, at both ends of the
	// measured period and after the drain, plus the latency samples.
	dg := sha256.New()
	m.p0.hash(dg)
	m.p1.hash(dg)
	pEnd.hash(dg)
	for _, l := range ld.lat {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(l))
		dg.Write(buf[:])
	}
	res.ModelDigest = fmt.Sprintf("%x", dg.Sum(nil)[:12])

	lat := append([]int64(nil), ld.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ops, virt := float64(m.ops), m.virt().Seconds()
	e2e := newValues(endToEnd)
	e2e.setN("setup_s", median(setupS), len(setupS))
	e2e.set("model_goodput_gbps", float64(m.payload)*8/virt/1e9)
	e2e.set("model_ops_per_s", ops/virt)
	e2e.setN("model_lat_p50_us", float64(percentile(lat, 0.50))/1e3, len(lat))
	e2e.setN("model_lat_p999_us", float64(percentile(lat, 0.999))/1e3, len(lat))
	e2e.setN("host_us_per_op", median(m.usPerOp), len(m.usPerOp))
	e2e.set("host_allocs_per_op", float64(m.h1.mem.Mallocs-m.h0.mem.Mallocs)/ops)
	e2e.set("host_alloc_kb_per_op", float64(m.h1.mem.TotalAlloc-m.h0.mem.TotalAlloc)/ops/1024)
	e2e.set("host_live_heap_mb", float64(m.liveHeap)/(1<<20))
	res.EndToEnd = e2e.list()

	pl := newValues(perLayerDefs())
	inSituMetrics(pl, m, &pEnd, float64(w.L12.Config().Rate))
	if c.traced {
		if err := tracedMetrics(pl, rec, harvest, w, prof.Name()); err != nil {
			return fail("%v", err)
		}
		if c.baseUsPerOp > 0 {
			pl.set("trace.overhead_frac", median(m.usPerOp)/c.baseUsPerOp-1)
		}
		if err := rec.write(filepath.Join(c.outDir, c.wl.name+".spans.json")); err != nil {
			return fail("%v", err)
		}
	}
	res.PerLayer = pl.list()

	res.Violations = ld.violations
	if len(ld.violations) > 0 || res.OpsFailed > 0 {
		return fail("oracle violated: %d of %d ops failed; %s", res.OpsFailed, res.OpsAttempted, strings.Join(ld.violations, "; "))
	}
	return res, nil
}

// inSituMetrics fills in the per-layer counts: deltas over the measured
// period divided by its ops, and end states from the probe after the drain.
func inSituMetrics(pl *values, m *period, pEnd *probe, linkRate float64) {
	d := func(suffixes ...string) float64 { return m.p1.sum(suffixes...) - m.p0.sum(suffixes...) }
	perOp := func(x float64) float64 { return x / float64(m.ops) }
	virt := m.virt()

	guestTx, guestRx := d(".guest.bytes_sent"), d(".guest.bytes_received")
	pl.set("guestlib.nqes_per_op", perOp(d(".guest.ops_issued")))
	pl.set("guestlib.events_per_op", perOp(d(".guest.events", ".guest.completions")))
	pl.set("guestlib.credit_stalls_per_op", perOp(d(".guest.credit_stalls")))
	pl.set("guestlib.events_per_wakeup", ratio(d(".guest.poller_events"), d(".guest.poller_wakeups")))
	pl.set("guestlib.tx_copies_per_byte", ratio(d(".guest.tx_bytes_copied"), guestTx))
	pl.set("guestlib.rx_copies_per_byte", ratio(d(".guest.rx_bytes_copied"), guestRx))

	pl.set("nkqueue.elems_per_op", perOp(d(".pushed")))
	pl.set("nkqueue.depth_end", m.p1.sum(".depth"))
	pl.set("nkqueue.conservation_err", m.p1.conservationErr()+pEnd.conservationErr())

	rings := d(".doorbell_rings")
	pl.set("shm.doorbell_rings_per_op", perOp(rings))
	pl.set("shm.wakeups_per_ring", ratio(d(".doorbell_wakeups"), rings))
	pl.set("shm.live_refs_end", pEnd.sum(".pages.live_refs"))

	pl.set("engine.nqes_per_op", perOp(d("engine.nqes_vm_to_nsm", "engine.nqes_nsm_to_vm")))
	pl.set("engine.translated_per_op", perOp(d("engine.translated")))
	pl.set("engine.discarded", pEnd.sum("engine.discarded_elements"))
	pl.set("engine.bad_elements", pEnd.sum("engine.bad_elements"))

	pl.set("servicelib.jobs_per_op", perOp(d(".svc.jobs_processed")))
	pl.set("servicelib.ids_per_ready_event", ratio(d(".svc.ready_ids"), d(".svc.ready_events")))
	pl.set("servicelib.tx_copies_per_byte", ratio(d(".svc.tx_bytes_copied"), d(".svc.data_in")))
	pl.set("servicelib.rx_copies_per_byte", ratio(d(".svc.rx_bytes_copied"), d(".svc.data_out")))

	pl.set("stack.frames_per_op", perOp(d(".stack.frames_in", ".stack.frames_out")))
	pl.set("stack.drops", pEnd.sum(".stack.dropped_no_route", ".stack.dropped_bad_packet", ".stack.dropped_no_socket", ".stack.dropped_dead"))

	segsIn := d(".stack.tcp_segs_in")
	pl.set("tcp.segs_in_per_op", perOp(segsIn))
	pl.set("tcp.payload_bytes_per_seg", ratio(guestRx, segsIn))
	pl.set("tcp.retrans_frac", ratio(d(".stack.tcp_retransmits"), d(".stack.frames_out")))
	pl.set("tcp.tx_copies_per_byte", ratio(d(".stack.tcp_copied_tx"), guestTx))
	pl.set("tcp.rx_copies_per_byte", ratio(d(".stack.tcp_copied_rx"), guestRx))

	pl.set("vswitch.frames_per_op", perOp(d("switch.rx_frames")))
	pl.set("vswitch.flooded", pEnd.sum("switch.flooded"))
	pl.set("vswitch.dropped", pEnd.sum("switch.dropped"))

	var offered, lossDrops, queueDrops, maxQueue, util float64
	for i := range m.p1.links {
		a, z := m.p0.links[i], m.p1.links[i]
		offered += float64(z.Offered - a.Offered)
		lossDrops += float64(z.LossDrops - a.LossDrops)
		queueDrops += float64(z.QueueDrops - a.QueueDrops)
		maxQueue = math.Max(maxQueue, float64(z.MaxQueue))
		util = math.Max(util, float64(z.TxBytes-a.TxBytes)*8/linkRate/virt.Seconds())
	}
	pl.set("netsim.wire_frames_per_op", perOp(offered))
	pl.set("netsim.loss_drop_frac", ratio(lossDrops, offered))
	pl.set("netsim.queue_drop_frac", ratio(queueDrops, offered))
	pl.set("netsim.max_queue_kb", maxQueue/1024)
	pl.set("netsim.link_util", util)
	var core float64 // the busiest NSM core: a flow is pinned to one core, so one core binds
	for i := range m.p1.coreBusy {
		core = math.Max(core, float64(m.p1.coreBusy[i]-m.p0.coreBusy[i])/float64(virt))
	}
	pl.set("netsim.nsm_cpu_util", core)

	events := float64(m.p1.processed - m.p0.processed)
	pl.set("sim.events_per_op", perOp(events))
	pl.set("sim.events_per_frame", ratio(events, offered))
	pl.set("sim.pending_end", float64(m.p1.pending))
	pl.set("sim.host_ns_per_event", float64(m.cpu.Nanoseconds())/events)
	pl.set("sim.virt_ms_per_wall_s", float64(virt)/float64(time.Millisecond)/m.wall.Seconds())

	pl.set("runtime.gc_cycles", float64(m.h1.mem.NumGC-m.h0.mem.NumGC))
	pl.set("runtime.gc_cpu_frac", ratio(m.h1.gcCPU-m.h0.gcCPU, m.h1.totalCPU-m.h0.totalCPU))
	pl.set("runtime.cpu_us_per_op", perOp(float64((m.h1.cpu - m.h0.cpu).Microseconds())))
	pl.set("runtime.heap_sys_mb", float64(m.h1.mem.HeapSys)/(1<<20))
}
