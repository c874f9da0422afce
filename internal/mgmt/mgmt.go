// Package mgmt provides the centralized management plane the paper
// argues NSaaS enables (§5 "Centralized management and control"):
// since the provider now owns the stack, "management protocols such as
// failure detection [17 — Pingmesh] and monitoring [28] can be
// deployed readily as NSMs."
//
// Three pieces:
//
//   - Mesh: a Pingmesh-style all-pairs ICMP prober with consecutive-
//     failure detection and RTT percentiles.
//   - ThroughputSLA: per-tenant achieved-vs-promised throughput
//     tracking, the basis for §2.1's "meaningful SLAs".
//   - Reports: snapshot structures for NSMs and hosts.
package mgmt

import (
	"fmt"
	"sort"
	"time"

	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
	"netkernel/internal/stack"
)

// MeshNode is one probe endpoint: a stack the provider controls (an
// NSM or a host agent).
type MeshNode struct {
	Name  string
	Stack *stack.Stack
	IP    ipv4.Addr
}

// MeshConfig shapes the prober.
type MeshConfig struct {
	Clock sim.Clock
	// Interval between probe rounds (default 1 s).
	Interval time.Duration
	// Timeout per probe (default 500 ms).
	Timeout time.Duration
}

// failThreshold is how many consecutive probe losses mark a path down.
const failThreshold = 3

type pathKey struct{ from, to string }

type pathState struct {
	consecFails int
	down        bool
	rtts        []time.Duration // bounded history
	sent, lost  uint64
}

// Mesh probes every ordered pair of nodes.
type Mesh struct {
	cfg     MeshConfig
	nodes   []MeshNode
	paths   map[pathKey]*pathState
	running bool
	stopped bool
}

// NewMesh builds a prober over the given nodes.
func NewMesh(cfg MeshConfig, nodes []MeshNode) *Mesh {
	if cfg.Clock == nil {
		panic("mgmt: MeshConfig.Clock required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	m := &Mesh{cfg: cfg, nodes: nodes, paths: make(map[pathKey]*pathState)}
	for _, a := range nodes {
		for _, b := range nodes {
			if a.Name != b.Name {
				m.paths[pathKey{a.Name, b.Name}] = &pathState{}
			}
		}
	}
	return m
}

// Start begins periodic probing.
func (m *Mesh) Start() {
	if m.running {
		return
	}
	m.running = true
	m.round()
}

// Stop halts probing after the current round.
func (m *Mesh) Stop() { m.stopped = true }

func (m *Mesh) round() {
	if m.stopped {
		m.running = false
		return
	}
	for _, a := range m.nodes {
		for _, b := range m.nodes {
			if a.Name == b.Name {
				continue
			}
			m.probe(a, b)
		}
	}
	m.cfg.Clock.AfterFunc(m.cfg.Interval, m.round)
}

func (m *Mesh) probe(a, b MeshNode) {
	key := pathKey{a.Name, b.Name}
	st := m.paths[key]
	st.sent++
	a.Stack.Ping(b.IP, []byte("pingmesh"), m.cfg.Timeout, func(rtt time.Duration, err error) {
		if err != nil {
			st.lost++
			st.consecFails++
			if st.consecFails >= failThreshold {
				st.down = true
			}
			return
		}
		st.consecFails = 0
		st.down = false
		st.rtts = append(st.rtts, rtt)
		if len(st.rtts) > 128 {
			st.rtts = st.rtts[1:]
		}
	})
}

// PathReport summarizes one directed path.
type PathReport struct {
	From, To   string
	Down       bool
	Sent, Lost uint64
	RTTp50     time.Duration
	RTTp99     time.Duration
}

// Report returns per-path summaries, sorted by (from, to).
func (m *Mesh) Report() []PathReport {
	var out []PathReport
	for key, st := range m.paths {
		r := PathReport{From: key.from, To: key.to, Down: st.down, Sent: st.sent, Lost: st.lost}
		if len(st.rtts) > 0 {
			sorted := append([]time.Duration(nil), st.rtts...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			r.RTTp50 = sorted[len(sorted)/2]
			r.RTTp99 = sorted[len(sorted)*99/100]
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// ThroughputSLA tracks a tenant's achieved throughput against a
// promised floor, sampled over fixed windows. The provider can only
// offer this because it owns the stack (§2.1: "providers can now offer
// meaningful SLAs to tenants and charge them accordingly").
type ThroughputSLA struct {
	clock     sim.Clock
	name      string
	targetBps float64
	window    time.Duration
	sample    func() uint64 // cumulative bytes

	last     uint64
	achieved []float64 // bps per window
	stopped  bool
}

// NewThroughputSLA builds a tracker. sample must return a cumulative
// byte counter (e.g. the tenant's ServiceLib DataIn).
func NewThroughputSLA(clock sim.Clock, name string, targetBps float64, window time.Duration, sample func() uint64) *ThroughputSLA {
	if window <= 0 {
		window = time.Second
	}
	return &ThroughputSLA{clock: clock, name: name, targetBps: targetBps, window: window, sample: sample}
}

// Start begins sampling.
func (s *ThroughputSLA) Start() {
	s.last = s.sample()
	s.tick()
}

// Stop halts sampling.
func (s *ThroughputSLA) Stop() { s.stopped = true }

func (s *ThroughputSLA) tick() {
	if s.stopped {
		return
	}
	s.clock.AfterFunc(s.window, func() {
		cur := s.sample()
		bps := float64(cur-s.last) * 8 / s.window.Seconds()
		s.last = cur
		s.achieved = append(s.achieved, bps)
		s.tick()
	})
}

// Compliance returns the fraction of windows meeting the target,
// ignoring idle windows (no traffic means no demand, not a violation).
func (s *ThroughputSLA) Compliance() float64 {
	active, met := 0, 0
	for _, bps := range s.achieved {
		if bps <= 0 {
			continue
		}
		active++
		if bps >= s.targetBps {
			met++
		}
	}
	if active == 0 {
		return 1
	}
	return float64(met) / float64(active)
}

// MeanActiveBps returns the mean achieved rate over active windows.
func (s *ThroughputSLA) MeanActiveBps() float64 {
	sum, n := 0.0, 0
	for _, bps := range s.achieved {
		if bps > 0 {
			sum += bps
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// String summarizes the tracker.
func (s *ThroughputSLA) String() string {
	return fmt.Sprintf("sla %s: target %.1f Mbit/s, mean %.1f Mbit/s, compliance %.0f%%",
		s.name, s.targetBps/1e6, s.MeanActiveBps()/1e6, s.Compliance()*100)
}
