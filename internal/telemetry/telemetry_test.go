package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"netkernel/internal/sim"
)

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	r := NewRegistry()
	depth := int64(-7)
	r.GaugeFunc("depth", func() int64 { return depth })
	depth += 10
	if got := r.Snapshot().Gauge("depth"); got != 3 {
		t.Fatalf("gauge = %d, want 3", got)
	}
}

func TestRegistryScopesAndSnapshot(t *testing.T) {
	r := NewRegistry()
	var owned Counter
	scope := r.Scope("vm1.guest")
	scope.Counter("ops", &owned)
	owned.Add(5)
	r.Counter("loose").Inc()
	r.GaugeFunc("depth", func() int64 { return 9 })
	r.GaugeFunc("derived", func() int64 { return 11 })
	scope.Child("q").GaugeFunc("len", func() int64 { return 3 })
	r.Histogram("lat").Observe(100)

	snap := r.Snapshot()
	if got := snap.Counter("vm1.guest.ops"); got != 5 {
		t.Errorf("scoped counter = %d, want 5", got)
	}
	if got := snap.Counter("loose"); got != 1 {
		t.Errorf("loose counter = %d, want 1", got)
	}
	if got := snap.Gauge("depth"); got != 9 {
		t.Errorf("gauge = %d, want 9", got)
	}
	if got := snap.Gauge("derived"); got != 11 {
		t.Errorf("gauge func = %d, want 11", got)
	}
	if got := snap.Gauge("vm1.guest.q.len"); got != 3 {
		t.Errorf("child scope gauge = %d, want 3", got)
	}
	if h, ok := snap.Histograms["lat"]; !ok || h.Count != 1 {
		t.Errorf("histogram snapshot missing or wrong: %+v", h)
	}
	if got := r.CounterValue("vm1.guest.ops"); got != 5 {
		t.Errorf("CounterValue = %d, want 5", got)
	}
	if got := r.CounterValue("absent"); got != 0 {
		t.Errorf("CounterValue(absent) = %d, want 0", got)
	}

	filtered := snap.Filter("vm1.")
	if len(filtered.Counters) != 1 || len(filtered.Gauges) != 1 {
		t.Errorf("filter kept %d counters / %d gauges, want 1/1", len(filtered.Counters), len(filtered.Gauges))
	}
	if !strings.Contains(snap.String(), "vm1.guest.ops") {
		t.Error("String() missing scoped counter row")
	}
}

// TestRegistryLastWinsRegistration models an NSM restart: the rebooted
// component re-registers the same metric names and its fresh counters
// must take over.
func TestRegistryLastWinsRegistration(t *testing.T) {
	r := NewRegistry()
	var old, fresh Counter
	r.RegisterCounter("nsm1.stack.frames_in", &old)
	old.Add(100)
	r.RegisterCounter("nsm1.stack.frames_in", &fresh)
	fresh.Add(3)
	if got := r.Snapshot().Counter("nsm1.stack.frames_in"); got != 3 {
		t.Fatalf("after re-registration snapshot = %d, want 3 (the fresh counter)", got)
	}
}

// TestNilSafety: every Scope and Tracer method must be a no-op on nil
// receivers so unmetered components need no conditionals on hot paths.
func TestNilSafety(t *testing.T) {
	var r *Registry
	scope := r.Scope("x")
	if scope != nil {
		t.Fatal("nil registry must produce a nil scope")
	}
	var c Counter
	scope.Counter("a", &c)
	scope.GaugeFunc("b", func() int64 { return 0 })
	scope.Child("c").Counter("d", &c)
	scope.Histogram("e").Observe(1) // standalone histogram, must not panic
	if r.CounterValue("x") != 0 {
		t.Error("nil registry CounterValue != 0")
	}
	r.Snapshot() // must not panic

	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	if id := tr.Start("tx:send"); id != 0 {
		t.Errorf("nil tracer Start = %d, want 0", id)
	}
	tr.Stamp(1, "hop", 0)
	tr.End(1, "hop")
	tr.Drop(1)
	if got := tr.Completed(); got != nil {
		t.Errorf("nil tracer Completed = %v, want nil", got)
	}
}

// TestHistogramQuantiles checks the log-bucketed percentile estimates
// land in the right bucket's upper bound.
func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 99; i++ {
		h.Observe(100) // bucket of 64..127 → upper bound 127
	}
	h.Observe(1 << 20)
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.P50 != 127 {
		t.Errorf("p50 = %d, want 127 (bucket upper bound)", s.P50)
	}
	// Rank 99 of 100 is the outlier; its log2 bucket's upper bound is
	// 2^21-1.
	if s.P99 != 1<<21-1 {
		t.Errorf("p99 = %d, want %d", s.P99, 1<<21-1)
	}
	if s.Max != 1<<20 {
		t.Errorf("max = %d, want %d", s.Max, 1<<20)
	}
	if s.Sum != 99*100+1<<20 {
		t.Errorf("sum = %d", s.Sum)
	}
}

// TestRegistryConcurrency hammers counters, gauges, and histograms
// from N writer goroutines while M readers snapshot concurrently; run
// under -race this is the data-race gate for the whole registry. The
// invariants: counters observed by successive snapshots are monotonic,
// and every histogram snapshot conserves its total (Count == Σ bucket
// counts) even mid-write.
func TestRegistryConcurrency(t *testing.T) {
	const (
		writers = 8
		readers = 4
		perG    = 20000
	)
	r := NewRegistry()
	// Pre-register so writers contend on the atomics, not the map.
	for w := 0; w < writers; w++ {
		r.Counter(fmt.Sprintf("w%d.ops", w))
	}
	shared := r.Counter("shared.ops")
	hist := r.Histogram("shared.lat")
	r.GaugeFunc("derived.total", func() int64 { return int64(shared.Load()) })

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := r.Counter(fmt.Sprintf("w%d.ops", w))
			for i := 0; i < perG; i++ {
				own.Inc()
				shared.Add(2)
				hist.Observe(uint64(i%1024) + 1)
			}
		}()
	}
	errs := make(chan string, readers*4)
	for m := 0; m < readers; m++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastShared uint64
			for i := 0; i < 200; i++ {
				snap := r.Snapshot()
				if v := snap.Counter("shared.ops"); v < lastShared {
					errs <- fmt.Sprintf("shared.ops went backwards: %d after %d", v, lastShared)
					return
				} else {
					lastShared = v
				}
				h := snap.Histograms["shared.lat"]
				var sum uint64
				for _, b := range h.Buckets {
					sum += b
				}
				if h.Count != sum {
					errs <- fmt.Sprintf("histogram total not conserved: Count=%d Σbuckets=%d", h.Count, sum)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	final := r.Snapshot()
	if got := final.Counter("shared.ops"); got != writers*perG*2 {
		t.Errorf("shared.ops = %d, want %d", got, writers*perG*2)
	}
	for w := 0; w < writers; w++ {
		if got := final.Counter(fmt.Sprintf("w%d.ops", w)); got != perG {
			t.Errorf("w%d.ops = %d, want %d", w, got, perG)
		}
	}
	h := final.Histograms["shared.lat"]
	if h.Count != writers*perG {
		t.Errorf("histogram count = %d, want %d", h.Count, writers*perG)
	}
}

// TestTracerSampling verifies counter-based 1-in-N sampling: with
// SampleEvery=4, exactly every 4th Start call opens a span, with no
// randomness — the property trace determinism rests on.
func TestTracerSampling(t *testing.T) {
	loop := sim.NewLoop()
	tr := NewTracer(TraceConfig{Clock: loop, SampleEvery: 4})
	var ids []uint32
	for i := 0; i < 16; i++ {
		if id := tr.Start("tx:send"); id != 0 {
			ids = append(ids, id)
			tr.End(id, "done")
		}
	}
	if len(ids) != 4 {
		t.Fatalf("sampled %d of 16, want 4", len(ids))
	}
	if got := len(tr.Completed()); got != 4 {
		t.Fatalf("completed = %d, want 4", got)
	}
	// An operation the sampler passes over costs no span and no allocation.
	tr.SetSampleEvery(1 << 30)
	if n := testing.AllocsPerRun(100, func() { tr.Start("tx:send") }); n != 0 || tr.ActiveCount() != 0 {
		t.Errorf("off-sample Start: %v allocs, %d spans in flight", n, tr.ActiveCount())
	}
	tr.SetSampleEvery(0)
	if tr.Enabled() {
		t.Error("tracer still enabled after SetSampleEvery(0)")
	}
	if id := tr.Start("tx:send"); id != 0 {
		t.Error("disabled tracer started a span")
	}
}

// TestTracerSpanLifecycle walks one span through its hops in virtual
// time and checks the recorded offsets, notes, and duration.
func TestTracerSpanLifecycle(t *testing.T) {
	loop := sim.NewLoop()
	reg := NewRegistry()
	tr := NewTracer(TraceConfig{Clock: loop, SampleEvery: 1, Metrics: reg.Scope("trace")})

	var spanID uint32
	spanID = tr.Start("tx:send")
	if spanID == 0 {
		t.Fatal("SampleEvery=1 did not sample")
	}
	tr.Stamp(spanID, "guestlib.enqueue", 3)
	loop.AfterFunc(100, func() { tr.Stamp(spanID, "engine.vm-pump", 0) })
	loop.AfterFunc(250, func() { tr.End(spanID, "stack.tx") })
	loop.Run()

	done := tr.Completed()
	if len(done) != 1 {
		t.Fatalf("completed = %d, want 1", len(done))
	}
	sp := done[0]
	if sp.Duration() != 250 {
		t.Errorf("duration = %d, want 250", sp.Duration())
	}
	wantHops := []struct {
		name string
		at   sim.Time
		note int64
	}{{"guestlib.enqueue", 0, 3}, {"engine.vm-pump", 100, 0}, {"stack.tx", 250, 0}}
	if len(sp.Hops) != len(wantHops) {
		t.Fatalf("hops = %d, want %d: %v", len(sp.Hops), len(wantHops), sp.Hops)
	}
	for i, w := range wantHops {
		h := sp.Hops[i]
		if h.Name != w.name || h.At != w.at || h.Note != w.note {
			t.Errorf("hop %d = %+v, want %+v", i, h, w)
		}
	}
	if !strings.Contains(sp.Format(), "engine.vm-pump@+100") {
		t.Errorf("Format() = %q missing hop offset", sp.Format())
	}
	// The span-end histogram must have recorded the duration.
	h := reg.Snapshot().Histograms["trace.span.tx:send_ns"]
	if h.Count != 1 || h.Max != 250 {
		t.Errorf("span histogram = %+v, want count 1 max 250", h)
	}

	// Stamps on unknown/ended spans are no-ops; Drop abandons actives.
	tr.Stamp(spanID, "late", 0)
	id2 := tr.Start("tx:send")
	tr.Drop(id2)
	if n := tr.ActiveCount(); n != 0 {
		t.Errorf("active = %d after drop, want 0", n)
	}
	if got := len(tr.Completed()); got != 1 {
		t.Errorf("completed = %d after drop, want still 1", got)
	}
}

// TestTracerCaps bounds both the active-span map and the done ring.
func TestTracerCaps(t *testing.T) {
	loop := sim.NewLoop()
	tr := NewTracer(TraceConfig{Clock: loop, SampleEvery: 1})
	for i := 0; i < 4*traceCap; i++ {
		if id := tr.Start("tx:send"); id != 0 {
			tr.End(id, "done")
		}
	}
	if got := len(tr.Completed()); got != traceCap {
		t.Fatalf("done ring holds %d, want cap %d", got, traceCap)
	}
	// The ring keeps the newest spans (oldest evicted first).
	done := tr.Completed()
	if done[len(done)-1].ID <= done[0].ID {
		t.Errorf("ring order wrong: first id %d, last id %d", done[0].ID, done[len(done)-1].ID)
	}
	// Active spans saturate at the cap instead of growing unboundedly.
	for i := 0; i < 4*traceCap; i++ {
		tr.Start("rx:new_data")
	}
	if n := tr.ActiveCount(); n > traceCap {
		t.Errorf("active map grew to %d, cap %d", n, traceCap)
	}
}
