package mgmt

import (
	"testing"
	"time"

	"netkernel/internal/proto/ethernet"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
	"netkernel/internal/stack"
)

// threeNodeFabric builds three stacks on one shared "wire" (a hub) so
// any node can ping any other, with a kill switch per node.
func threeNodeFabric(t *testing.T) (*sim.Loop, []MeshNode, func(i int)) {
	t.Helper()
	loop := sim.NewLoop()
	type node struct {
		st   *stack.Stack
		dead bool
	}
	nodes := make([]*node, 3)
	var deliverAll func(from int, frame []byte)
	for i := 0; i < 3; i++ {
		i := i
		st := stack.New(stack.Config{Clock: loop, RNG: sim.NewRNG(uint64(i)), Name: string(rune('a' + i))})
		mac := ethernet.MAC{2, 0, 0, 0, 0, byte(i + 1)}
		ip := ipv4.Addr{10, 0, 0, byte(i + 1)}
		st.AttachInterface(mac, ip, 1500, 24, ipv4.Addr{}, func(f []byte) {
			loop.AfterFunc(time.Millisecond, func() { deliverAll(i, f) })
		})
		nodes[i] = &node{st: st}
	}
	deliverAll = func(from int, frame []byte) {
		for j, n := range nodes {
			if j == from || n.dead {
				continue
			}
			c := make([]byte, len(frame))
			copy(c, frame)
			n.st.DeliverFrame(c)
		}
	}
	var mesh []MeshNode
	for i, n := range nodes {
		mesh = append(mesh, MeshNode{
			Name:  string(rune('a' + i)),
			Stack: n.st,
			IP:    ipv4.Addr{10, 0, 0, byte(i + 1)},
		})
	}
	kill := func(i int) { nodes[i].dead = true }
	return loop, mesh, kill
}

func TestMeshHealthyPathsStayUp(t *testing.T) {
	loop, nodes, _ := threeNodeFabric(t)
	m := NewMesh(MeshConfig{Clock: loop, Interval: 100 * time.Millisecond, Timeout: 50 * time.Millisecond}, nodes)
	m.Start()
	loop.RunFor(2 * time.Second)
	m.Stop()
	for _, r := range m.Report() {
		if r.Down {
			t.Fatalf("healthy path %s→%s marked down", r.From, r.To)
		}
		if r.Sent < 10 || r.Lost > 0 {
			t.Fatalf("path %s→%s sent=%d lost=%d", r.From, r.To, r.Sent, r.Lost)
		}
		if r.RTTp50 <= 0 || r.RTTp50 > 20*time.Millisecond {
			t.Fatalf("path %s→%s p50=%v", r.From, r.To, r.RTTp50)
		}
	}
	if len(m.Report()) != 6 {
		t.Fatalf("reported %d paths, want 6 ordered pairs", len(m.Report()))
	}
}

func TestMeshDetectsFailureAndRecovery(t *testing.T) {
	loop, nodes, kill := threeNodeFabric(t)
	m := NewMesh(MeshConfig{Clock: loop, Interval: 100 * time.Millisecond, Timeout: 50 * time.Millisecond}, nodes)
	downs := func() (out []string) {
		for _, r := range m.Report() {
			if r.Down {
				out = append(out, r.From+"→"+r.To)
			}
		}
		return out
	}
	m.Start()
	loop.RunFor(time.Second)
	if d := downs(); len(d) != 0 {
		t.Fatalf("false positives before failure: %v", d)
	}

	kill(2) // node c stops receiving
	loop.RunFor(2 * time.Second)
	if !m.PathDown("a", "c") || !m.PathDown("b", "c") {
		t.Fatalf("paths to dead node not detected; downs=%v", downs())
	}
	if m.PathDown("a", "b") {
		t.Fatal("healthy path misdetected")
	}
	// c→a fails too: c's requests go out, but the echo replies cannot
	// reach the deaf node, so its own probes also time out.
	if !m.PathDown("c", "a") {
		t.Fatal("deaf node's own probes should fail (reply path broken)")
	}
	if d := downs(); len(d) != 4 {
		t.Fatalf("down paths %v, want the 4 to and from c", d)
	}
	m.Stop()
}

func TestThroughputSLACompliance(t *testing.T) {
	loop := sim.NewLoop()
	var counter uint64
	sla := NewThroughputSLA(loop, "tenantA", 8e6 /* 8 Mbit/s */, 100*time.Millisecond, func() uint64 { return counter })
	sla.Start()
	// 5 windows at 10 Mbit/s (125 KB per 100 ms), then 5 at 4 Mbit/s.
	for i := 0; i < 5; i++ {
		counter += 125000
		loop.RunFor(100 * time.Millisecond)
	}
	for i := 0; i < 5; i++ {
		counter += 50000
		loop.RunFor(100 * time.Millisecond)
	}
	sla.Stop()
	if sla.Windows() < 9 {
		t.Fatalf("windows = %d", sla.Windows())
	}
	c := sla.Compliance()
	if c < 0.4 || c > 0.6 {
		t.Fatalf("compliance = %v, want ≈0.5", c)
	}
	if sla.MeanActiveBps() < 5e6 || sla.MeanActiveBps() > 9e6 {
		t.Fatalf("mean = %v", sla.MeanActiveBps())
	}
	if sla.String() == "" {
		t.Fatal("String empty")
	}
}

func TestThroughputSLAIdleWindowsIgnored(t *testing.T) {
	loop := sim.NewLoop()
	var counter uint64
	sla := NewThroughputSLA(loop, "idle", 1e9, time.Second, func() uint64 { return counter })
	sla.Start()
	loop.RunFor(10 * time.Second) // no traffic at all
	sla.Stop()
	if sla.Compliance() != 1 {
		t.Fatalf("idle tenant compliance = %v, want 1 (no demand)", sla.Compliance())
	}
}

// PathDown reports whether a directed path is currently marked down.
func (m *Mesh) PathDown(from, to string) bool {
	st := m.paths[pathKey{from, to}]
	return st != nil && st.down
}

// Windows returns the number of completed windows.
func (s *ThroughputSLA) Windows() int { return len(s.achieved) }
