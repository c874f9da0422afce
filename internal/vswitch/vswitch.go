// Package vswitch implements the overlay switch of Figure 2: a
// MAC-learning switch connecting tenant vNICs, NSM ports, and the
// physical NIC on one host.
//
// Two modes mirror the paper's deployment options: a software overlay
// switch (OVS/Hyper-V-style, with a per-frame processing delay) and an
// embedded hardware switch (SR-IOV path, zero switching cost — traffic
// "can bypass the host to the physical NIC", §3.1).
package vswitch

import (
	"time"

	"netkernel/internal/framepool"
	"netkernel/internal/netsim"
	"netkernel/internal/sim"
)

// Mode selects the switching substrate.
type Mode int

// Modes.
const (
	// Software is a host software switch (vSwitch) with per-frame cost.
	Software Mode = iota
	// Embedded is a hardware embedded switch (SR-IOV), zero per-frame
	// cost.
	Embedded
)

func (m Mode) String() string {
	if m == Embedded {
		return "embedded"
	}
	return "software"
}

// Config shapes a switch.
type Config struct {
	Mode Mode
	// PerFrameDelay is the software-switch processing latency per
	// frame (ignored in Embedded mode). Default 1 µs.
	PerFrameDelay time.Duration
	// AgingTime bounds how long a learned MAC stays valid. Default 60 s.
	AgingTime time.Duration
}

// Stats counts switch activity. Every frame entering the switch is
// accounted exactly once: RxFrames == Forwarded + Flooded + Dropped.
type Stats struct {
	// RxFrames counts frames entering the switch from any port.
	RxFrames  uint64
	Forwarded uint64
	Flooded   uint64
	// Dropped counts frames discarded without forwarding: runts
	// shorter than an Ethernet header, and frames whose learned
	// destination is the ingress port itself (hairpin suppression).
	Dropped uint64
	Learned uint64
	// AgedOut counts FDB entries evicted because a lookup found them
	// expired.
	AgedOut uint64
}

// Switch is a MAC-learning switch.
type Switch struct {
	clock sim.Clock
	cfg   Config
	ports []*Port
	fdb   map[netsim.MAC]*fdbEntry
	stats Stats
	// delay is where frames sit out PerFrameDelay: the delay is fixed,
	// so they leave in arrival order behind one event-loop entry.
	delay sim.Lane
}

// fdbEntry is one learned address. The FDB holds entries by pointer so
// that a port can keep the entries of the last source and destination
// it saw and skip the map for the next frame of the same flow; port is
// nil once the entry has been evicted, which is how such a kept pointer
// is known to be stale.
type fdbEntry struct {
	mac     netsim.MAC
	port    *Port
	expires sim.Time
}

// New builds a switch.
func New(clock sim.Clock, cfg Config) *Switch {
	if cfg.PerFrameDelay <= 0 {
		cfg.PerFrameDelay = time.Microsecond
	}
	if cfg.AgingTime <= 0 {
		cfg.AgingTime = 60 * time.Second
	}
	s := &Switch{clock: clock, cfg: cfg, fdb: make(map[netsim.MAC]*fdbEntry)}
	s.delay.Init(clock)
	return s
}

// Stats returns a copy of the counters.
func (s *Switch) Stats() Stats { return s.stats }

// Mode returns the switching mode.
func (s *Switch) Mode() Mode { return s.cfg.Mode }

// Port is one switch port. Frames arriving from the attached device
// enter through Deliver; frames leaving toward the device go to out.
type Port struct {
	sw  *Switch
	idx int
	out netsim.Port
	// lastSrc and lastDst are the FDB entries of the source and the
	// destination of the last frame that entered here.
	lastSrc, lastDst *fdbEntry
}

// lookup returns the live FDB entry for mac, trying *last first and
// leaving what it found there; nil if the address is not in the FDB.
func (s *Switch) lookup(mac netsim.MAC, last **fdbEntry) *fdbEntry {
	if e := *last; e != nil && e.mac == mac && e.port != nil {
		return e
	}
	e := s.fdb[mac]
	if e != nil {
		*last = e
	}
	return e
}

// AddPort attaches a device (NIC, VF handler, stack interface…) whose
// inbound side is out.
func (s *Switch) AddPort(out netsim.Port) *Port {
	p := &Port{sw: s, idx: len(s.ports), out: out}
	s.ports = append(s.ports, p)
	return p
}

// Ports returns the port count.
func (s *Switch) Ports() int { return len(s.ports) }

// Deliver implements netsim.Port: a frame entering the switch from this
// port's device.
func (p *Port) Deliver(frame []byte) {
	sw := p.sw
	sw.stats.RxFrames++
	if len(frame) < 12 {
		sw.stats.Dropped++
		framepool.Put(frame)
		return
	}
	var src netsim.MAC
	copy(src[:], frame[6:12])

	// Learn the source.
	if !src.IsBroadcast() {
		e := sw.lookup(src, &p.lastSrc)
		if e == nil {
			e = &fdbEntry{mac: src}
			sw.fdb[src] = e
			p.lastSrc = e
		}
		if e.port != p {
			sw.stats.Learned++
			e.port = p
		}
		e.expires = sw.clock.Now().Add(sw.cfg.AgingTime)
	}

	if sw.cfg.Mode == Software {
		sw.delay.AfterFrame(sw.cfg.PerFrameDelay, (*delayDone)(p), frame, 0)
	} else {
		p.forward(frame)
	}
}

// delayDone is a Port as the handler of a frame that entered through it
// and has now sat out the software switch's per-frame delay.
type delayDone Port

func (p *delayDone) HandleFrame(frame []byte, _ uint64) { (*Port)(p).forward(frame) }

// forward sends a frame that entered through p out of the port its
// destination was learned on, or floods it.
func (p *Port) forward(frame []byte) {
	sw := p.sw
	var dst netsim.MAC
	copy(dst[:], frame[0:6])
	// The broadcast address is never learned, so it has no entry.
	if e := sw.lookup(dst, &p.lastDst); e != nil {
		if sw.clock.Now() < e.expires {
			if e.port != p {
				sw.stats.Forwarded++
				e.port.out.Deliver(frame)
			} else {
				sw.stats.Dropped++ // hairpin: destination is the ingress port
				framepool.Put(frame)
			}
			return
		}
		// Expired entry: evict it and fall through to flooding.
		sw.stats.AgedOut++
		delete(sw.fdb, dst)
		e.port = nil
	}
	// Unknown or broadcast: flood a copy to every other port.
	sw.stats.Flooded++
	for _, q := range sw.ports {
		if q != p {
			q.out.Deliver(framepool.Clone(frame))
		}
	}
	framepool.Put(frame)
}
