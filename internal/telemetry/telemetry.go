// Package telemetry is the unified observability layer for the
// NetKernel reproduction: a lock-cheap metrics registry (atomic
// counters, read-on-snapshot gauges, and log-bucketed latency
// histograms) plus per-nqe span tracing stamped in virtual time
// (trace.go).
//
// The paper's §5 argues that decoupling the stack from the guest gives
// the provider a single vantage point for monitoring and diagnosis
// ("centralized management and control"). This package is that vantage
// point: every layer registers its hot-path counters here under a
// dotted name (`vm1.guest.bytes_sent`, `nsm2.stack.frames_in`,
// `engine.translated`, …) and one Snapshot() call renders the whole
// host. Hot paths never take a lock — components own their Counter
// values and update them with single atomic adds; the registry only
// holds pointers, and its mutex guards registration and snapshotting.
//
// Naming convention (DESIGN.md §9): `<instance>.<subsystem>.<metric>`,
// lower_snake_case metric leaf, instance prefixes like `vm3`, `nsm2`,
// `vm3.r1` (per-replica channel), `engine`, `switch`.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A Counter is a monotonically increasing atomic counter. The zero
// value is ready to use; components embed Counters by value and
// register pointers so the hot-path update is one atomic add with no
// map lookup or lock.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// A Registry names metrics and snapshots them. Registration is
// last-wins: re-registering a name replaces the previous metric, which
// is what NSM restarts want (the fresh stack's counters take over the
// old name).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gaugeFns map[string]func() int64
	histos   map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gaugeFns: make(map[string]func() int64),
		histos:   make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed. Nil-safe:
// a nil registry hands back an unregistered standalone counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// RegisterCounter publishes an externally owned counter under name.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
}

// GaugeFunc publishes a read-on-snapshot gauge, an instantaneous value
// that may go down. The function is called
// during Snapshot with the registry lock held; it must not call back
// into the registry.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return &Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histos[name]
	if h == nil {
		h = &Histogram{}
		r.histos[name] = h
	}
	return h
}

// CounterValue reads a counter by name (0 if absent). This is the
// hand-off point for consumers like mgmt.ThroughputSLA that sample a
// cumulative metric on a timer.
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// Names returns the sorted names of every registered metric, across
// all three kinds. Restart-stability tests compare the name set before
// and after an NSM reboot: last-wins registration must swap metric
// owners without growing or shrinking it.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gaugeFns)+len(r.histos))
	for name := range r.counters {
		names = append(names, name)
	}
	for name := range r.gaugeFns {
		names = append(names, name)
	}
	for name := range r.histos {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// Scope returns a registration helper that prefixes every name with
// prefix + ".". Nil-safe: scoping a nil registry returns a nil scope
// whose methods are no-ops (hot paths keep their own counters either
// way, so an unmetered component costs nothing).
func (r *Registry) Scope(prefix string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{r: r, prefix: strings.TrimSuffix(prefix, ".") + "."}
}

// A Scope registers metrics under a fixed dotted prefix.
type Scope struct {
	r      *Registry
	prefix string
}

// Child returns a sub-scope with "<prefix><sub>." prepended.
func (s *Scope) Child(sub string) *Scope {
	if s == nil {
		return nil
	}
	return s.r.Scope(s.prefix + sub)
}

// Counter publishes an externally owned counter under the scope.
func (s *Scope) Counter(name string, c *Counter) {
	if s == nil {
		return
	}
	s.r.RegisterCounter(s.prefix+name, c)
}

// GaugeFunc publishes a read-on-snapshot gauge under the scope.
func (s *Scope) GaugeFunc(name string, fn func() int64) {
	if s == nil {
		return
	}
	s.r.GaugeFunc(s.prefix+name, fn)
}

// Histogram returns the scoped named histogram. On a nil scope it
// returns a working standalone histogram so callers need no nil checks.
func (s *Scope) Histogram(name string) *Histogram {
	if s == nil {
		return &Histogram{}
	}
	return s.r.Histogram(s.prefix + name)
}

// A Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]int64
	Histograms map[string]HistogramSnapshot
}

// Snapshot reads every metric. Counters are atomic loads; gauge funcs
// run under the registry lock. Concurrent hot-path updates
// keep going — a snapshot is a consistent-enough view, not a barrier.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, fn := range r.gaugeFns {
		s.Gauges[name] = fn()
	}
	for name, h := range r.histos {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Counter reads a counter from the snapshot (0 if absent).
func (s Snapshot) Counter(name string) uint64 { return s.Counters[name] }

// Gauge reads a gauge from the snapshot (0 if absent).
func (s Snapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Filter returns the sub-snapshot whose names start with any prefix.
func (s Snapshot) Filter(prefixes ...string) Snapshot {
	match := func(name string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}
	out := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for name, v := range s.Counters {
		if match(name) {
			out.Counters[name] = v
		}
	}
	for name, v := range s.Gauges {
		if match(name) {
			out.Gauges[name] = v
		}
	}
	for name, v := range s.Histograms {
		if match(name) {
			out.Histograms[name] = v
		}
	}
	return out
}

// String renders the snapshot as sorted fixed-width rows, one metric
// per line — the `nkctl stats` output format.
func (s Snapshot) String() string {
	type row struct{ name, kind, val string }
	rows := make([]row, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for name, v := range s.Counters {
		rows = append(rows, row{name, "counter", fmt.Sprintf("%d", v)})
	}
	for name, v := range s.Gauges {
		rows = append(rows, row{name, "gauge", fmt.Sprintf("%d", v)})
	}
	for name, h := range s.Histograms {
		rows = append(rows, row{name, "hist",
			fmt.Sprintf("count=%d p50=%d p99=%d max=%d", h.Count, h.P50, h.P99, h.Max)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%-48s %-8s %s\n", r.name, r.kind, r.val)
	}
	return b.String()
}
