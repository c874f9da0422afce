package stack

import (
	"testing"
	"time"

	"netkernel/internal/framepool"
	"netkernel/internal/netsim"
	"netkernel/internal/proto/arp"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/sim"
)

// TestConnectSurvivesLostARP drops the very first frame of a
// connection attempt — the ARP request — and verifies resolution
// retries rescue the handshake (previously a permanent stall).
func TestConnectSurvivesLostARP(t *testing.T) {
	p := newPair(t, fastLink(), nil)
	// Drop exactly the first frame host A transmits (the ARP request).
	dropped := false
	origTx := p.a.iface.tx
	p.a.iface.tx = func(f []byte) {
		if !dropped {
			dropped = true
			return
		}
		origTx(f)
	}
	p.b.Listen(80, 4, SocketOptions{})
	var est error = errPending
	_, err := p.a.Dial(tcp.AddrPort{Addr: ipB, Port: 80}, SocketOptions{
		OnEstablished: func(e error) { est = e },
	})
	if err != nil {
		t.Fatal(err)
	}
	p.loop.RunFor(5 * time.Second)
	if !dropped {
		t.Fatal("no frame was dropped")
	}
	if est != nil {
		t.Fatalf("connection never recovered from the lost ARP request: %v", est)
	}
	_ = netsim.EthernetOverhead
}

// Frames parked behind an ARP resolution go back to the pool when the
// resolution is abandoned: when its retries run out (a SYN to a hop
// that never answers, retransmitted until the dial fails), and when the
// stack is killed with the resolution still pending.
func TestAbandonedResolutionReleasesParkedFrames(t *testing.T) {
	loop := sim.NewLoop()
	s := New(Config{Clock: loop, RNG: sim.NewRNG(1), Name: "a"})
	s.AttachInterface(macA, ipA, 1500, 24, ipv4.Addr{}, func(f []byte) { framepool.Put(f) })
	ghost := tcp.AddrPort{Addr: ipv4.Addr{10, 0, 0, 99}, Port: 80}
	live := framepool.Live()

	var est error = errPending
	if _, err := s.Dial(ghost, SocketOptions{OnEstablished: func(e error) { est = e }}); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if est == nil || est == errPending {
		t.Fatalf("dial to a hop that never answers: %v, want a failure", est)
	}
	if st := s.Stats(); st.ARPRequests < 2*arp.MaxRequests {
		t.Fatalf("%d ARP requests: the SYN's retransmissions did not outlive one resolution", st.ARPRequests)
	}
	if n := framepool.Live() - live; n != 0 {
		t.Errorf("%d frames not released after every resolution gave up", n)
	}

	live = framepool.Live()
	if _, err := s.Dial(ghost, SocketOptions{}); err != nil {
		t.Fatal(err)
	}
	loop.RunFor(time.Millisecond)
	if s.arpCache.Pending() != 1 || framepool.Live() == live {
		t.Fatalf("%d resolutions pending, %d frames out: the SYN is not parked", s.arpCache.Pending(), framepool.Live()-live)
	}
	s.Kill()
	loop.Run()
	if n := framepool.Live() - live; n != 0 {
		t.Errorf("%d frames not released after the stack was killed mid-resolution", n)
	}
}
