package telemetry

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"netkernel/internal/sim"
)

// Per-nqe span tracing. A traced element carries a 32-bit trace id in
// its wire record (nqe offset 44, a former pad); each layer that
// touches the element stamps a named hop with the sim-clock time, so a
// finished span answers "where did this nqe spend its time?" hop by
// hop — GuestLib enqueue → CoreEngine pump → ServiceLib dispatch →
// stack TX, and the mirror receive path.
//
// Sampling is 1-in-N and counter-based, not random: with a fixed seed
// the k-th operation is the same operation in every run, so traces are
// byte-identical across identical runs (TestTraceDeterminism).
// SampleEvery = 0 disables tracing entirely; the hot-path cost of the
// disabled tracer is one nil check and one atomic load, and of an
// enabled one, for the N-1 operations it passes over, one atomic add.

// A Hop is one stamped point in a span's life.
type Hop struct {
	Name string   // e.g. "guestlib.enqueue", "engine.vm-pump"
	At   sim.Time // virtual time of the stamp
	Note int64    // hop-specific detail (ring occupancy at enqueue)
}

// A Span is the life of one traced nqe.
type Span struct {
	ID    uint32
	Kind  string // "tx:send", "rx:new-data", …
	Start sim.Time
	End   sim.Time
	Hops  []Hop
}

// Duration is the span's virtual lifetime.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Format renders the span as one line with hop offsets relative to the
// span start, e.g.:
//
//	span 7 tx:send +9240ns: guestlib.enqueue@+0(1) engine.vm-pump@+1012 …
func (s Span) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "span %d %s +%dns:", s.ID, s.Kind, int64(s.Duration()))
	for _, h := range s.Hops {
		fmt.Fprintf(&b, " %s@+%d", h.Name, int64(h.At-s.Start))
		if h.Note != 0 {
			fmt.Fprintf(&b, "(%d)", h.Note)
		}
	}
	return b.String()
}

// traceCap bounds both a tracer's in-flight span map and its retained
// completed-span ring.
const traceCap = 256

// TraceConfig shapes a Tracer.
type TraceConfig struct {
	// Clock stamps hops (required).
	Clock sim.Clock
	// SampleEvery traces one in every N sampling-eligible operations;
	// 0 (the default) disables tracing.
	SampleEvery int
	// Metrics, when set, receives a per-kind span-latency histogram
	// ("span.<kind>_ns") observed at span end.
	Metrics *Scope
}

// A Tracer samples, stamps, and retains nqe spans. All methods are
// nil-safe no-ops on a nil tracer and goroutine-safe under a mutex —
// cheap enough because only sampled elements (id != 0) ever reach the
// locked paths.
type Tracer struct {
	every atomic.Int64
	seen  atomic.Uint64 // sampling-eligible operations offered to Start

	mu     sync.Mutex
	clock  sim.Clock
	scope  *Scope
	nextID uint32
	active map[uint32]*Span
	done   []Span
}

// NewTracer builds a tracer.
func NewTracer(cfg TraceConfig) *Tracer {
	t := &Tracer{
		clock:  cfg.Clock,
		scope:  cfg.Metrics,
		active: make(map[uint32]*Span),
	}
	t.every.Store(int64(cfg.SampleEvery))
	return t
}

// Enabled reports whether Start can currently yield a sampled span.
func (t *Tracer) Enabled() bool { return t != nil && t.every.Load() > 0 }

// SetSampleEvery changes the sampling interval (0 disables).
func (t *Tracer) SetSampleEvery(n int) {
	if t != nil {
		t.every.Store(int64(n))
	}
}

// Start considers one operation for sampling. It returns the new
// span's id, or 0 when the operation was not sampled (disabled tracer,
// off-sample op, or in-flight table full). The id travels in the nqe's
// trace field; id 0 means untraced everywhere. Sampling is decided
// first, without the lock: callers pass a name they did not have to
// build (nqe.Op.TxSpan), so an off-sample operation costs one atomic add.
func (t *Tracer) Start(kind string) uint32 {
	if t == nil {
		return 0
	}
	n := t.every.Load()
	if n <= 0 || t.seen.Add(1)%uint64(n) != 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.active) >= traceCap {
		return 0
	}
	t.nextID++
	if t.nextID == 0 {
		t.nextID = 1
	}
	id := t.nextID
	t.active[id] = &Span{ID: id, Kind: kind, Start: t.clock.Now()}
	return id
}

// Stamp appends a hop to an in-flight span. Unknown ids (already
// ended, dropped, or from a restarted peer) are ignored.
func (t *Tracer) Stamp(id uint32, hop string, note int64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.active[id]
	if sp == nil {
		return
	}
	sp.Hops = append(sp.Hops, Hop{Name: hop, At: t.clock.Now(), Note: note})
}

// End stamps the final hop and retires the span into the completed
// ring, observing its virtual duration into the per-kind histogram.
func (t *Tracer) End(id uint32, hop string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.active[id]
	if sp == nil {
		return
	}
	delete(t.active, id)
	now := t.clock.Now()
	sp.Hops = append(sp.Hops, Hop{Name: hop, At: now})
	sp.End = now
	if len(t.done) >= traceCap {
		copy(t.done, t.done[1:])
		t.done = t.done[:len(t.done)-1]
	}
	t.done = append(t.done, *sp)
	if t.scope != nil {
		t.scope.Histogram("span." + sp.Kind + "_ns").Observe(uint64(sp.Duration()))
	}
}

// Drop abandons an in-flight span (element discarded by a crash,
// reset, or teardown) without recording it.
func (t *Tracer) Drop(id uint32) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	delete(t.active, id)
	t.mu.Unlock()
}

// Completed returns a copy of the retained finished spans in
// completion order (oldest first).
func (t *Tracer) Completed() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.done))
	copy(out, t.done)
	return out
}

// ActiveCount returns the number of in-flight spans.
func (t *Tracer) ActiveCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.active)
}
