// Package arp implements Address Resolution Protocol packets and a
// resolution cache for IPv4 over Ethernet.
package arp

import (
	"encoding/binary"
	"fmt"
	"time"

	"netkernel/internal/proto/ethernet"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
)

// PacketLen is the size of an IPv4-over-Ethernet ARP packet.
const PacketLen = 28

// Op is the ARP operation.
type Op uint16

// Operations.
const (
	OpRequest Op = 1
	OpReply   Op = 2
)

// Packet is a decoded ARP packet.
type Packet struct {
	Op        Op
	SenderMAC ethernet.MAC
	SenderIP  ipv4.Addr
	TargetMAC ethernet.MAC
	TargetIP  ipv4.Addr
}

// Marshal writes the packet into b, at least PacketLen bytes.
func (p *Packet) Marshal(b []byte) {
	_ = b[PacketLen-1]
	binary.BigEndian.PutUint16(b[0:], 1)      // hardware: Ethernet
	binary.BigEndian.PutUint16(b[2:], 0x0800) // protocol: IPv4
	b[4] = 6                                  // MAC length
	b[5] = 4                                  // IP length
	binary.BigEndian.PutUint16(b[6:], uint16(p.Op))
	copy(b[8:14], p.SenderMAC[:])
	copy(b[14:18], p.SenderIP[:])
	copy(b[18:24], p.TargetMAC[:])
	copy(b[24:28], p.TargetIP[:])
}

// Parse decodes an ARP packet.
func Parse(b []byte) (Packet, error) {
	if len(b) < PacketLen {
		return Packet{}, fmt.Errorf("arp: packet of %d bytes shorter than %d", len(b), PacketLen)
	}
	if binary.BigEndian.Uint16(b[0:]) != 1 || binary.BigEndian.Uint16(b[2:]) != 0x0800 || b[4] != 6 || b[5] != 4 {
		return Packet{}, fmt.Errorf("arp: not IPv4-over-Ethernet")
	}
	var p Packet
	p.Op = Op(binary.BigEndian.Uint16(b[6:]))
	if p.Op != OpRequest && p.Op != OpReply {
		return Packet{}, fmt.Errorf("arp: unknown op %d", p.Op)
	}
	copy(p.SenderMAC[:], b[8:14])
	copy(p.SenderIP[:], b[14:18])
	copy(p.TargetMAC[:], b[18:24])
	copy(p.TargetIP[:], b[24:28])
	return p, nil
}

// DefaultCacheTTL is how long a learned mapping stays valid.
const DefaultCacheTTL = 60 * time.Second

// Resolution retry policy: a lost ARP request must not strand the
// packets parked behind it, so unresolved requests are retransmitted.
const (
	// RequestTimeout is the wait between retransmitted requests.
	RequestTimeout = time.Second
	// MaxRequests bounds the attempts before waiters are dropped.
	MaxRequests = 3
)

type cacheEntry struct {
	mac     ethernet.MAC
	expires sim.Time
}

// A Waiter is told how a resolution ended: ok with the resolved MAC, or
// !ok when the cache abandoned it (retries exhausted, or Reset), so a
// waiter holding resources for the resolution can release them.
type Waiter func(mac ethernet.MAC, ok bool)

type pendingResolution struct {
	waiters  []Waiter
	attempts int
	timer    sim.Handle
}

// Cache maps IPv4 addresses to MACs with expiry, and parks packets that
// are waiting for resolution. Resolution requests are retried on a
// timer: a single lost ARP request otherwise strands every waiter until
// upper-layer timeouts fire.
type Cache struct {
	clock   sim.Clock
	ttl     time.Duration
	entries map[ipv4.Addr]cacheEntry
	pending map[ipv4.Addr]*pendingResolution
	// Request transmits an ARP request for ip; the owning stack wires
	// it so retries can be driven from here.
	Request func(ip ipv4.Addr)
}

// NewCache builds a cache; ttl <= 0 selects the default.
func NewCache(clock sim.Clock, ttl time.Duration) *Cache {
	if ttl <= 0 {
		ttl = DefaultCacheTTL
	}
	return &Cache{
		clock:   clock,
		ttl:     ttl,
		entries: make(map[ipv4.Addr]cacheEntry),
		pending: make(map[ipv4.Addr]*pendingResolution),
	}
}

// Lookup returns the MAC for ip if a live entry exists.
func (c *Cache) Lookup(ip ipv4.Addr) (ethernet.MAC, bool) {
	e, ok := c.entries[ip]
	if !ok || c.clock.Now() >= e.expires {
		return ethernet.MAC{}, false
	}
	return e.mac, true
}

// Learn records a mapping and releases any packets waiting on it.
func (c *Cache) Learn(ip ipv4.Addr, mac ethernet.MAC) {
	c.entries[ip] = cacheEntry{mac: mac, expires: c.clock.Now().Add(c.ttl)}
	if p := c.pending[ip]; p != nil {
		delete(c.pending, ip)
		p.timer.Stop()
		p.notify(mac, true)
	}
}

// notify runs every waiter once with the resolution's outcome.
func (p *pendingResolution) notify(mac ethernet.MAC, ok bool) {
	for _, fn := range p.waiters {
		fn(mac, ok)
	}
}

// Await registers fn to run exactly once: with ok when ip resolves, or
// with !ok when the resolution is abandoned. It reports whether the
// caller should transmit an ARP request now (true for the first
// waiter); retransmissions are driven internally through the Request
// hook.
func (c *Cache) Await(ip ipv4.Addr, fn Waiter) bool {
	p := c.pending[ip]
	if p != nil {
		p.waiters = append(p.waiters, fn)
		return false
	}
	p = &pendingResolution{waiters: []Waiter{fn}, attempts: 1}
	c.pending[ip] = p
	c.armRetry(ip, p)
	return true
}

func (c *Cache) armRetry(ip ipv4.Addr, p *pendingResolution) {
	p.timer = c.clock.AfterFunc(RequestTimeout, func() {
		if c.pending[ip] != p {
			return // resolved meanwhile
		}
		if p.attempts >= MaxRequests {
			// Give up: tell the waiters; upper layers' own timers
			// (TCP RTO, ping timeout) surface the failure.
			delete(c.pending, ip)
			p.notify(ethernet.MAC{}, false)
			return
		}
		p.attempts++
		if c.Request != nil {
			c.Request(ip)
		}
		c.armRetry(ip, p)
	})
}

// Reset drops all entries and abandons in-flight resolutions, stopping
// their retry timers and telling their waiters. The owning stack calls
// it on teardown so no resolution timer outlives the stack.
func (c *Cache) Reset() {
	pending := c.pending
	c.pending = make(map[ipv4.Addr]*pendingResolution)
	c.entries = make(map[ipv4.Addr]cacheEntry)
	for _, p := range pending {
		p.timer.Stop()
		p.notify(ethernet.MAC{}, false)
	}
}

// Pending returns the number of in-progress resolutions.
func (c *Cache) Pending() int { return len(c.pending) }

// Len returns the number of live entries.
func (c *Cache) Len() int {
	n := 0
	now := c.clock.Now()
	for _, e := range c.entries {
		if now < e.expires {
			n++
		}
	}
	return n
}
