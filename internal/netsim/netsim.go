// Package netsim is the simulated physical substrate NetKernel runs on:
// links with configurable bandwidth, propagation delay, queueing, random
// loss and ECN marking; NICs with SR-IOV virtual functions; and a
// per-core CPU service model.
//
// The paper's testbed is two Xeon servers with Intel X710 40 GbE NICs
// joined back to back (§4.1), plus a Beijing↔California WAN path for the
// flexibility experiment (§4.3: 12 Mbit/s uplink, 350 ms average RTT).
// Both are link configurations here; see the presets in profiles.go.
//
// Everything in this package runs on a sim.Clock, so the fabric is
// deterministic in the virtual-time domain and usable in the wall-clock
// domain.
package netsim

import (
	"fmt"
	"time"

	"netkernel/internal/framepool"
	"netkernel/internal/sim"
)

// BitsPerSec expresses link capacity.
type BitsPerSec float64

// Common capacities.
const (
	Kbps BitsPerSec = 1e3
	Mbps BitsPerSec = 1e6
	Gbps BitsPerSec = 1e9
)

func (b BitsPerSec) String() string {
	switch {
	case b >= Gbps:
		return fmt.Sprintf("%.2fGbit/s", float64(b)/1e9)
	case b >= Mbps:
		return fmt.Sprintf("%.2fMbit/s", float64(b)/1e6)
	case b >= Kbps:
		return fmt.Sprintf("%.2fKbit/s", float64(b)/1e3)
	default:
		return fmt.Sprintf("%.0fbit/s", float64(b))
	}
}

// A Port is anything that accepts a frame from the fabric. Frames are
// whole Ethernet frames. Deliver consumes the slice: the receiver owns
// it and may return it to the frame pool (DESIGN.md §15), so the caller
// neither touches it again nor delivers it to a second port — a fan-out
// hands every further receiver a copy of its own (framepool.Clone).
type Port interface {
	Deliver(frame []byte)
}

// PortFunc adapts a function to the Port interface.
type PortFunc func(frame []byte)

// Deliver implements Port.
func (f PortFunc) Deliver(frame []byte) { f(frame) }

// LinkConfig shapes one direction of a link.
type LinkConfig struct {
	// Rate is the transmission capacity. Zero means infinitely fast.
	Rate BitsPerSec
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// LossProb is a Bernoulli per-frame loss probability. It is the
	// historical knob and keeps working unchanged; it is folded into
	// Faults.LossProb at link construction unless Faults configures its
	// own loss model.
	LossProb float64
	// Faults is the full deterministic fault model (bursty loss,
	// duplication, corruption, reordering). The zero value injects
	// nothing.
	Faults FaultConfig
	// QueueBytes bounds the drop-tail transmit queue. Zero means a
	// generous default of one bandwidth-delay product (minimum 64 KB).
	QueueBytes int
	// ECNThresholdBytes, when positive, marks frames (via the Marker
	// hook) once the queue occupancy exceeds it — a RED-at-threshold
	// model sufficient for DCTCP.
	ECNThresholdBytes int
	// Marker is invoked in place on frames selected for ECN marking.
	// The stack wires it to flip the IP CE bit.
	Marker func(frame []byte)
	// FrameOverhead is added to each frame's wire size (preamble, FCS,
	// inter-frame gap): 24 bytes on real Ethernet. Negative means 0.
	FrameOverhead int
}

// EthernetOverhead is the per-frame wire overhead of Ethernet: 7-byte
// preamble + SFD + 4-byte FCS + 12-byte inter-frame gap.
const EthernetOverhead = 24

func (c LinkConfig) queueBytes() int {
	if c.QueueBytes > 0 {
		return c.QueueBytes
	}
	bdp := int(float64(c.Rate) / 8 * c.Delay.Seconds())
	if bdp < 64<<10 {
		bdp = 64 << 10
	}
	return bdp
}

// LinkStats counts what a link did. Every offered frame is accounted
// for exactly once: Offered == TxFrames + LossDrops + QueueDrops +
// DownDrops. Duplicates are extra deliveries on top of TxFrames.
type LinkStats struct {
	Offered    uint64 // frames handed to Send
	TxFrames   uint64
	TxBytes    uint64
	LossDrops  uint64 // random loss (Bernoulli or Gilbert–Elliott)
	QueueDrops uint64 // drop-tail overflow
	DownDrops  uint64 // frames lost to a link flap/partition
	ECNMarks   uint64
	MaxQueue   int // high-water mark, bytes

	DupFrames       uint64 // extra copies delivered beyond TxFrames
	CorruptFrames   uint64 // frames delivered with a flipped bit
	ReorderedFrames uint64 // frames delivered with extra jitter
}

// A Link is one unidirectional pipe: a drop-tail queue, a serializing
// transmitter, a propagation delay, and Bernoulli loss.
type Link struct {
	clock sim.Clock
	rng   *sim.RNG
	cfg   LinkConfig
	dst   Port

	queueCap  int // cfg.queueBytes(), worked out once
	busyUntil sim.Time
	queued    int // bytes committed to the transmitter, not yet sent
	down      bool
	stats     LinkStats

	// The transmitter and the wire are FIFO — busyUntil only moves
	// forward and Delay is fixed — so the frames in the queue and the
	// frames in flight each hold one event-loop entry between them.
	txLane   sim.Lane
	wireLane sim.Lane
}

// NewLink builds a link feeding dst. rng drives the loss process; pass a
// scenario-seeded RNG for reproducibility.
func NewLink(clock sim.Clock, rng *sim.RNG, cfg LinkConfig, dst Port) *Link {
	if dst == nil {
		panic("netsim: link with nil destination")
	}
	if cfg.FrameOverhead < 0 {
		cfg.FrameOverhead = 0
	}
	if cfg.Faults.ReorderSpread > maxReorder {
		panic("netsim: ReorderSpread beyond what a frame's fate can carry")
	}
	if cfg.LossProb > 0 && cfg.Faults.LossProb == 0 && cfg.Faults.GE == nil {
		cfg.Faults.LossProb = cfg.LossProb
	}
	if cfg.Faults.GE != nil {
		ge := *cfg.Faults.GE // each link owns its chain state
		cfg.Faults.GE = &ge
	}
	l := &Link{clock: clock, rng: rng, cfg: cfg, dst: dst, queueCap: cfg.queueBytes()}
	l.txLane.Init(clock)
	l.wireLane.Init(clock)
	return l
}

// Stats returns a copy of the link counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueuedBytes returns the current transmit-queue occupancy.
func (l *Link) QueuedBytes() int { return l.queued }

// Config returns the link configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Send enqueues a frame for transmission. The link takes ownership of
// the slice: a frame it drops goes back to the frame pool. Must be
// called from the clock's executor.
func (l *Link) Send(frame []byte) {
	wire := len(frame) + l.cfg.FrameOverhead
	l.stats.Offered++
	if l.queued+wire > l.queueCap {
		l.stats.QueueDrops++
		framepool.Put(frame)
		return
	}
	if l.cfg.ECNThresholdBytes > 0 && l.queued > l.cfg.ECNThresholdBytes && l.cfg.Marker != nil {
		l.cfg.Marker(frame)
		l.stats.ECNMarks++
	}
	l.queued += wire
	if l.queued > l.stats.MaxQueue {
		l.stats.MaxQueue = l.queued
	}

	now := l.clock.Now()
	start := l.busyUntil
	if start < now {
		start = now
	}
	var tx time.Duration
	if l.cfg.Rate > 0 {
		tx = time.Duration(float64(wire*8) / float64(l.cfg.Rate) * float64(time.Second))
	}
	done := start.Add(tx)
	l.busyUntil = done

	l.txLane.AfterFrame(done.Sub(now), (*serialized)(l), frame, uint64(l.drawFate(len(frame)*8)))
}

// serialized and arrived are the Link as the handler of a frame's two
// hops — off the transmitter, then out of the far end — so neither hop
// builds a closure. A frame's fate rides in the event's arg.
type (
	serialized Link
	arrived    Link
)

func (s *serialized) HandleFrame(frame []byte, arg uint64) {
	l, fate := (*Link)(s), frameFate(arg)
	wire := len(frame) + l.cfg.FrameOverhead
	l.queued -= wire
	if l.down {
		l.stats.DownDrops++
		framepool.Put(frame)
		return
	}
	if fate.lost() {
		l.stats.LossDrops++
		framepool.Put(frame)
		return
	}
	l.stats.TxFrames++
	l.stats.TxBytes += uint64(wire)
	var dup []byte
	if fate.dup() {
		// Copy before any corruption: the duplicate models a clean
		// retransmission of the same frame.
		l.stats.DupFrames++
		dup = framepool.Clone(frame)
	}
	if bit, ok := fate.corruptBit(); ok {
		frame[bit/8] ^= 1 << (bit % 8)
		l.stats.CorruptFrames++
	}
	if fate.jitter() > 0 {
		l.stats.ReorderedFrames++
	}
	if dup != nil {
		l.propagate(dup, 0)
	}
	l.propagate(frame, fate.jitter())
}

func (a *arrived) HandleFrame(frame []byte, _ uint64) { a.dst.Deliver(frame) }

// propagate delivers a frame after the propagation delay plus any
// reordering jitter.
func (l *Link) propagate(frame []byte, jitter time.Duration) {
	switch {
	case jitter > 0:
		// Not on the wire lane: a late frame there would become the
		// lane's tail and push every frame behind it, due earlier, into
		// the heap one by one.
		l.clock.AfterFrame(l.cfg.Delay+jitter, (*arrived)(l), frame, 0)
	case l.cfg.Delay > 0:
		l.wireLane.AfterFrame(l.cfg.Delay, (*arrived)(l), frame, 0)
	default:
		l.dst.Deliver(frame)
	}
}

// Deliver implements Port, so links can be chained behind switches.
func (l *Link) Deliver(frame []byte) { l.Send(frame) }
