// Package vswitch implements the overlay switch of Figure 2: a
// MAC-learning switch connecting tenant vNICs, NSM ports, and the
// physical NIC on one host.
//
// It is the paper's software overlay switch (OVS/Hyper-V-style, with a
// per-frame processing delay). The SR-IOV embedded switch of §3.1,
// which forwards at zero cost, is not modelled: no experiment used it.
package vswitch

import (
	"time"

	"netkernel/internal/framepool"
	"netkernel/internal/netsim"
	"netkernel/internal/sim"
)

const (
	// perFrameDelay is the software switch's processing latency per
	// frame.
	perFrameDelay = time.Microsecond
	// agingTime bounds how long a learned MAC stays valid.
	agingTime = 60 * time.Second
)

// Config shapes a switch. It has no fields: every switch forwards after
// perFrameDelay and ages entries after agingTime.
type Config struct{}

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
	ports []*Port
	fdb   map[netsim.MAC]*fdbEntry
	stats Stats
	// delay is where frames sit out perFrameDelay: the delay is fixed,
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
func New(clock sim.Clock, _ Config) *Switch {
	s := &Switch{clock: clock, fdb: make(map[netsim.MAC]*fdbEntry)}
	s.delay.Init(clock)
	return s
}

// Stats returns a copy of the counters.
func (s *Switch) Stats() Stats { return s.stats }

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

// AddPort attaches a device (NIC, stack interface…) whose
// inbound side is out.
func (s *Switch) AddPort(out netsim.Port) *Port {
	p := &Port{sw: s, idx: len(s.ports), out: out}
	s.ports = append(s.ports, p)
	return p
}

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
		e.expires = sw.clock.Now().Add(agingTime)
	}
	sw.delay.AfterFrame(perFrameDelay, (*delayDone)(p), frame, 0)
}

// delayDone is a Port as the handler of a frame that entered through it
// and has now sat out the switch's per-frame delay.
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
