package vswitch

import (
	"testing"
	"time"

	"netkernel/internal/netsim"
	"netkernel/internal/sim"
)

type sink struct{ frames [][]byte }

func (s *sink) Deliver(f []byte) { s.frames = append(s.frames, f) }

func frameFromTo(src, dst netsim.MAC) []byte {
	f := make([]byte, 64)
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	return f
}

var (
	macA = netsim.MAC{2, 0, 0, 0, 0, 1}
	macB = netsim.MAC{2, 0, 0, 0, 0, 2}
	macC = netsim.MAC{2, 0, 0, 0, 0, 3}
)

func build() (*sim.Loop, *Switch, []*sink, []*Port) {
	loop := sim.NewLoop()
	sw := New(loop, Config{})
	sinks := []*sink{{}, {}, {}}
	var ports []*Port
	for _, s := range sinks {
		ports = append(ports, sw.AddPort(s))
	}
	return loop, sw, sinks, ports
}

func TestFloodThenLearn(t *testing.T) {
	loop, sw, sinks, ports := build()
	// A (port 0) → B: unknown, floods to ports 1 and 2.
	ports[0].Deliver(frameFromTo(macA, macB))
	loop.Run()
	if len(sinks[1].frames) != 1 || len(sinks[2].frames) != 1 || len(sinks[0].frames) != 0 {
		t.Fatalf("flood delivery: %d/%d/%d", len(sinks[0].frames), len(sinks[1].frames), len(sinks[2].frames))
	}
	// B replies from port 1: A is now learned, unicast to port 0 only.
	ports[1].Deliver(frameFromTo(macB, macA))
	loop.Run()
	if len(sinks[0].frames) != 1 || len(sinks[2].frames) != 1 {
		t.Fatalf("reply delivery: %d/%d/%d", len(sinks[0].frames), len(sinks[1].frames), len(sinks[2].frames))
	}
	// A → B again: B learned from the reply, no flood.
	ports[0].Deliver(frameFromTo(macA, macB))
	loop.Run()
	if len(sinks[1].frames) != 2 || len(sinks[2].frames) != 1 {
		t.Fatal("switch did not learn B")
	}
	st := sw.Stats()
	if st.Learned != 2 || st.Forwarded != 2 || st.Flooded != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBroadcastFloodsCopies(t *testing.T) {
	loop, _, sinks, ports := build()
	ports[0].Deliver(frameFromTo(macA, netsim.Broadcast))
	loop.Run()
	if len(sinks[1].frames) != 1 || len(sinks[2].frames) != 1 {
		t.Fatal("broadcast not flooded")
	}
	sinks[1].frames[0][20] = 0xAA
	if sinks[2].frames[0][20] == 0xAA {
		t.Fatal("flooded frames share a buffer")
	}
}

func TestHairpinSuppressed(t *testing.T) {
	loop, _, sinks, ports := build()
	ports[0].Deliver(frameFromTo(macA, macB)) // learn A on port 0
	loop.Run()
	ports[0].Deliver(frameFromTo(macB, macA)) // A reachable via ingress port
	loop.Run()
	if len(sinks[0].frames) != 0 {
		t.Fatal("frame hairpinned back out its ingress port")
	}
}

// A frame leaves the switch perFrameDelay after it entered, not before.
func TestSoftwareModeAddsLatency(t *testing.T) {
	loop, _, sinks, ports := build()
	ports[0].Deliver(frameFromTo(macA, macB))
	loop.RunFor(perFrameDelay - time.Nanosecond)
	if len(sinks[1].frames) != 0 {
		t.Fatal("switch forwarded before its per-frame delay")
	}
	loop.RunFor(time.Nanosecond)
	if len(sinks[1].frames) != 1 {
		t.Fatal("switch never forwarded")
	}
}

func TestFDBAging(t *testing.T) {
	loop := sim.NewLoop()
	sw := New(loop, Config{})
	s0, s1, s2 := &sink{}, &sink{}, &sink{}
	p0 := sw.AddPort(s0)
	sw.AddPort(s1)
	sw.AddPort(s2)
	p0.Deliver(frameFromTo(macA, macB))  // learn A
	loop.RunFor(agingTime + time.Second) // age out
	// B → A: A's entry expired, must flood — s0 (A's port) still gets it,
	// but so does s2, proving the unicast entry was not used.
	sw.ports[1].Deliver(frameFromTo(macB, macA))
	loop.Run()
	if len(s0.frames) != 1 {
		t.Fatal("flood skipped the original port")
	}
	if len(s2.frames) != 2 { // one from the initial flood, one now
		t.Fatalf("expired entry still used (s2 got %d frames)", len(s2.frames))
	}
}

func TestShortFrameIgnored(t *testing.T) {
	loop, sw, _, ports := build()
	ports[0].Deliver(make([]byte, 5))
	loop.Run()
	if st := sw.Stats(); st.Flooded != 0 || st.Forwarded != 0 || st.Dropped != 1 {
		t.Fatalf("runt frame not dropped: %+v", st)
	}
}

// TestStatsConservation exercises every accounting path — unicast,
// flood, runt drop, hairpin drop, aged-out eviction — and checks the
// conservation law the chaos suite relies on:
// RxFrames == Forwarded + Flooded + Dropped.
func TestStatsConservation(t *testing.T) {
	loop := sim.NewLoop()
	sw := New(loop, Config{})
	sinks := []*sink{{}, {}, {}}
	var ports []*Port
	for _, s := range sinks {
		ports = append(ports, sw.AddPort(s))
	}

	ports[0].Deliver(frameFromTo(macA, macB)) // unknown dst: flood, learn A
	loop.Run()                                // before B is learned below
	ports[1].Deliver(frameFromTo(macB, macA)) // known dst: unicast, learn B
	ports[0].Deliver(make([]byte, 5))         // runt: dropped
	ports[0].Deliver(frameFromTo(macC, macA)) // hairpin: A is on port 0, dropped
	loop.Run()

	st := sw.Stats()
	if st.RxFrames != 4 || st.Forwarded != 1 || st.Flooded != 1 || st.Dropped != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.RxFrames != st.Forwarded+st.Flooded+st.Dropped {
		t.Fatalf("conservation violated: %+v", st)
	}
	if st.AgedOut != 0 {
		t.Fatalf("nothing expired yet: %+v", st)
	}

	// Let the FDB expire, then address the stale entry: the lookup must
	// evict it (AgedOut) and fall back to flooding.
	loop.RunFor(agingTime + time.Second)
	ports[1].Deliver(frameFromTo(macB, macA))
	loop.Run()
	st = sw.Stats()
	if st.AgedOut != 1 {
		t.Fatalf("expired entry not evicted: %+v", st)
	}
	if st.Flooded != 2 {
		t.Fatalf("stale unicast entry was trusted: %+v", st)
	}
	if st.RxFrames != st.Forwarded+st.Flooded+st.Dropped {
		t.Fatalf("conservation violated after aging: %+v", st)
	}
}

// TestBroadcastNeverLearnedAsDestination: the broadcast address must
// never enter the FDB as a forwarding target, even though frames sourced
// from it would be absurd — a broadcast destination always floods.
func TestBroadcastNeverLearnedAsDestination(t *testing.T) {
	loop, sw, sinks, ports := build()
	ports[0].Deliver(frameFromTo(macA, netsim.Broadcast))
	ports[1].Deliver(frameFromTo(macB, netsim.Broadcast))
	loop.Run()
	// Both broadcasts flood to the two other ports each.
	if len(sinks[2].frames) != 2 {
		t.Fatalf("broadcasts not flooded: %d", len(sinks[2].frames))
	}
	if sw.Stats().Flooded != 2 || sw.Stats().Forwarded != 0 {
		t.Fatalf("broadcast handled as unicast: %+v", sw.Stats())
	}
}

// A learned unicast through the software switch is one closure-free
// delay event: no allocation per frame.
func TestAllocsPerFrame(t *testing.T) {
	loop := sim.NewLoop()
	sw := New(loop, Config{})
	got := 0
	pa := sw.AddPort(netsim.PortFunc(func([]byte) {}))
	pb := sw.AddPort(netsim.PortFunc(func([]byte) { got++ }))
	ab, ba := frameFromTo(macA, macB), frameFromTo(macB, macA)
	pb.Deliver(ba) // teach the switch where b lives
	pa.Deliver(ab)
	loop.Run()
	if n := testing.AllocsPerRun(100, func() { pa.Deliver(ab); loop.Run() }); n != 0 {
		t.Errorf("%v allocs per switched frame, want 0", n)
	}
	if got == 0 {
		t.Fatal("no frame reached the learned port")
	}
}

// A port keeps the FDB entries of the last source and destination it
// saw, so a steady flow skips the map. The kept pointers must never
// outvote the FDB: an address that moves ports, an entry that expires
// and is learned again, and a hairpin all count and forward exactly as
// a map lookup per frame would.
func TestFDBPortCaches(t *testing.T) {
	loop := sim.NewLoop()
	sw := New(loop, Config{})
	sinks := []*sink{{}, {}, {}}
	var ports []*Port
	for _, s := range sinks {
		ports = append(ports, sw.AddPort(s))
	}
	// send lets each frame through the switch before the next enters.
	send := func(p *Port, frame []byte) {
		p.Deliver(frame)
		loop.Run()
	}
	got := func() [3]int { return [3]int{len(sinks[0].frames), len(sinks[1].frames), len(sinks[2].frames)} }

	// A on port 0 and B on port 1 talk until both ports hold both entries.
	send(ports[0], frameFromTo(macA, macB)) // flood
	send(ports[1], frameFromTo(macB, macA))
	send(ports[0], frameFromTo(macA, macB))
	if ports[0].lastSrc != sw.fdb[macA] || ports[0].lastDst != sw.fdb[macB] || ports[1].lastDst != sw.fdb[macA] {
		t.Fatal("ports did not keep the entries of the flow they carry")
	}
	if st := sw.Stats(); st.Learned != 2 || st.Forwarded != 2 || got() != [3]int{1, 2, 1} {
		t.Fatalf("steady flow: %+v, deliveries %v", st, got())
	}

	// A moves to port 2: port 1's kept destination follows the entry.
	send(ports[2], frameFromTo(macA, macB))
	send(ports[1], frameFromTo(macB, macA))
	if st := sw.Stats(); st.Learned != 3 || got() != [3]int{1, 3, 2} {
		t.Fatalf("after the move: %+v, deliveries %v", st, got())
	}
	// And back: port 0 still holds A's entry as its last source, now
	// pointing at port 2, and must count the move.
	send(ports[0], frameFromTo(macA, macB))
	send(ports[1], frameFromTo(macB, macA))
	if st := sw.Stats(); st.Learned != 4 || got() != [3]int{2, 4, 2} {
		t.Fatalf("after the move back: %+v, deliveries %v", st, got())
	}

	// Hairpin through the kept destination: twice, the second a cache hit.
	send(ports[0], frameFromTo(macC, macA))
	send(ports[0], frameFromTo(macC, macA))
	if st := sw.Stats(); st.Dropped != 2 || st.Learned != 5 || got() != [3]int{2, 4, 2} {
		t.Fatalf("hairpin: %+v, deliveries %v", st, got())
	}

	// Everything expires. Port 1's kept entry for A must be evicted and
	// flooded past, not trusted...
	loop.RunFor(agingTime + time.Second)
	stale := sw.fdb[macA]
	send(ports[1], frameFromTo(macB, macA))
	if st := sw.Stats(); st.AgedOut != 1 || st.Flooded != 2 || got() != [3]int{3, 4, 3} || stale.port != nil || sw.fdb[macA] != nil {
		t.Fatalf("expiry: %+v, deliveries %v, evicted entry %+v", st, got(), stale)
	}
	// ...and when A speaks again, port 0's kept source is that evicted
	// entry: A is learned anew, and port 1 forwards by the new entry.
	send(ports[0], frameFromTo(macA, macB))
	send(ports[1], frameFromTo(macB, macA))
	if st := sw.Stats(); st.Learned != 6 || st.AgedOut != 1 || sw.fdb[macA] == stale || got() != [3]int{4, 5, 3} {
		t.Fatalf("relearn: %+v, deliveries %v", st, got())
	}
	if st := sw.Stats(); st.RxFrames != st.Forwarded+st.Flooded+st.Dropped {
		t.Fatalf("conservation violated: %+v", st)
	}
}
