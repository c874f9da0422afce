package arp

import (
	"testing"
	"time"

	"netkernel/internal/proto/ethernet"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
)

func samplePacket() Packet {
	return Packet{
		Op:        OpRequest,
		SenderMAC: ethernet.MAC{2, 0, 0, 0, 0, 1},
		SenderIP:  ipv4.Addr{10, 0, 0, 1},
		TargetMAC: ethernet.MAC{},
		TargetIP:  ipv4.Addr{10, 0, 0, 2},
	}
}

func TestMarshalParseRoundTrip(t *testing.T) {
	in := samplePacket()
	var b [PacketLen]byte
	in.Marshal(b[:])
	out, err := Parse(b[:])
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse(make([]byte, 10)); err == nil {
		t.Fatal("short packet accepted")
	}
	var b [PacketLen]byte
	p := samplePacket()
	p.Marshal(b[:])
	b[0] = 9 // hardware type
	if _, err := Parse(b[:]); err == nil {
		t.Fatal("bad hardware type accepted")
	}
	p = samplePacket()
	p.Marshal(b[:])
	b[7] = 9 // op
	if _, err := Parse(b[:]); err == nil {
		t.Fatal("bad op accepted")
	}
}

func TestCacheLearnLookup(t *testing.T) {
	loop := sim.NewLoop()
	c := NewCache(loop, time.Minute)
	ip := ipv4.Addr{10, 0, 0, 2}
	mac := ethernet.MAC{2, 0, 0, 0, 0, 2}
	if _, ok := c.Lookup(ip); ok {
		t.Fatal("lookup hit on empty cache")
	}
	c.Learn(ip, mac)
	got, ok := c.Lookup(ip)
	if !ok || got != mac {
		t.Fatalf("Lookup = %v, %v", got, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCacheExpiry(t *testing.T) {
	loop := sim.NewLoop()
	c := NewCache(loop, time.Second)
	ip := ipv4.Addr{10, 0, 0, 2}
	c.Learn(ip, ethernet.MAC{2, 0, 0, 0, 0, 2})
	loop.RunFor(2 * time.Second)
	if _, ok := c.Lookup(ip); ok {
		t.Fatal("expired entry still resolves")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after expiry", c.Len())
	}
}

func TestCacheAwaitReleasesWaiters(t *testing.T) {
	loop := sim.NewLoop()
	c := NewCache(loop, time.Minute)
	ip := ipv4.Addr{10, 0, 0, 7}
	var got []ethernet.MAC
	first := c.Await(ip, func(m ethernet.MAC, _ bool) { got = append(got, m) })
	second := c.Await(ip, func(m ethernet.MAC, _ bool) { got = append(got, m) })
	if !first {
		t.Fatal("first waiter should be told to send a request")
	}
	if second {
		t.Fatal("second waiter should not duplicate the request")
	}
	mac := ethernet.MAC{2, 0, 0, 0, 0, 9}
	c.Learn(ip, mac)
	if len(got) != 2 || got[0] != mac || got[1] != mac {
		t.Fatalf("waiters got %v", got)
	}
	// A later Learn must not re-run the waiters.
	c.Learn(ip, mac)
	if len(got) != 2 {
		t.Fatal("waiters ran twice")
	}
	// After resolution, a new Await is "first" again.
	if !c.Await(ipv4.Addr{10, 0, 0, 8}, func(ethernet.MAC, bool) {}) {
		t.Fatal("fresh address should request")
	}
}

func TestCacheRetriesLostRequests(t *testing.T) {
	loop := sim.NewLoop()
	c := NewCache(loop, time.Minute)
	requests := 0
	ip := ipv4.Addr{10, 0, 0, 9}
	c.Request = func(target ipv4.Addr) {
		if target != ip {
			t.Fatalf("retry for %v", target)
		}
		requests++
		// The first retry succeeds (the caller's own initial request
		// was "lost": Learn was never called for it).
		c.Learn(ip, ethernet.MAC{2, 0, 0, 0, 0, 9})
	}
	resolved := false
	if !c.Await(ip, func(_ ethernet.MAC, ok bool) { resolved = ok }) {
		t.Fatal("first waiter should send the initial request")
	}
	// The caller's initial request was "lost" (we never Learn from it).
	loop.RunFor(RequestTimeout + time.Millisecond)
	if !resolved {
		t.Fatalf("retry did not resolve (requests=%d)", requests)
	}
	if c.Pending() != 0 {
		t.Fatal("pending entry leaked after resolution")
	}
	// No further retries after resolution.
	loop.RunFor(5 * RequestTimeout)
	if requests != 1 {
		t.Fatalf("requests after resolution: %d", requests)
	}
}

func TestCacheGivesUpAfterMaxRequests(t *testing.T) {
	loop := sim.NewLoop()
	c := NewCache(loop, time.Minute)
	requests := 1 // the caller's initial transmission
	c.Request = func(ipv4.Addr) { requests++ }
	called := false
	c.Await(ipv4.Addr{10, 0, 0, 99}, func(ethernet.MAC, bool) { called = true })
	loop.RunFor(time.Duration(MaxRequests+2) * RequestTimeout)
	if requests != MaxRequests {
		t.Fatalf("sent %d requests, want %d", requests, MaxRequests)
	}
	if !called {
		t.Fatal("waiter never heard its resolution was abandoned")
	}
	if c.Pending() != 0 {
		t.Fatal("abandoned resolution still pending")
	}
	// The address can be retried fresh afterwards.
	if !c.Await(ipv4.Addr{10, 0, 0, 99}, func(ethernet.MAC, bool) {}) {
		t.Fatal("fresh Await after give-up should request again")
	}
}

// Every waiter hears how its resolution ended, exactly once: ok with the
// MAC when the address resolves, !ok when the cache gives up after
// MaxRequests or is Reset with the resolution pending. A waiter holding
// frames for the resolution releases them on !ok.
func TestCacheWaitersHearAbandonment(t *testing.T) {
	type heard struct {
		mac ethernet.MAC
		ok  bool
	}
	loop := sim.NewLoop()
	c := NewCache(loop, time.Minute)
	record := func(into *[]heard) Waiter {
		return func(m ethernet.MAC, ok bool) { *into = append(*into, heard{m, ok}) }
	}
	abandoned := heard{}

	var resolved []heard
	ip := ipv4.Addr{10, 0, 0, 2}
	mac := ethernet.MAC{2, 0, 0, 0, 0, 2}
	c.Await(ip, record(&resolved))
	c.Learn(ip, mac)
	c.Learn(ip, mac)
	loop.RunFor(time.Duration(MaxRequests+2) * RequestTimeout)
	c.Reset()
	if len(resolved) != 1 || resolved[0] != (heard{mac, true}) {
		t.Fatalf("resolved waiter heard %v, want exactly one {%v true}", resolved, mac)
	}

	var gaveUp []heard
	c.Await(ipv4.Addr{10, 0, 0, 99}, record(&gaveUp))
	c.Await(ipv4.Addr{10, 0, 0, 99}, record(&gaveUp))
	loop.RunFor(time.Duration(MaxRequests) * RequestTimeout)
	if len(gaveUp) != 2 || gaveUp[0] != abandoned || gaveUp[1] != abandoned {
		t.Fatalf("waiters of a resolution given up heard %v, want two !ok", gaveUp)
	}

	var reset []heard
	c.Await(ipv4.Addr{10, 0, 0, 98}, record(&reset))
	c.Await(ipv4.Addr{10, 0, 0, 97}, record(&reset))
	c.Reset()
	if len(reset) != 2 || reset[0] != abandoned || reset[1] != abandoned {
		t.Fatalf("waiters pending at Reset heard %v, want two !ok", reset)
	}
	if c.Pending() != 0 {
		t.Fatalf("%d resolutions pending after Reset", c.Pending())
	}
	loop.RunFor(time.Duration(MaxRequests+2) * RequestTimeout)
	if len(gaveUp) != 2 || len(reset) != 2 {
		t.Fatal("a waiter heard twice")
	}
}
