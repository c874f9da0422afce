package tcpcc

import "time"

// BBR implements Google's BBR v1 congestion control (Cardwell et al.,
// CACM 2017 — reference [10] of the paper). It models the path's
// bottleneck bandwidth (windowed-max filter over delivery-rate samples)
// and round-trip propagation delay (windowed-min filter), and paces at
// the estimated bandwidth instead of reacting to loss. That is what
// makes the Figure 5 WAN experiment work: on a 12 Mbit/s, 350 ms path
// with random loss, loss-based CUBIC collapses while BBR stays at the
// link rate.
type BBR struct {
	state bbrState

	// Bottleneck bandwidth filter: windowed max over ~10 rounds.
	btlBw bwFilter
	// Round-trip propagation estimate: windowed min over 10 s.
	minRTT      time.Duration
	minRTTStamp time.Duration

	// Round accounting.
	roundCount         uint64
	nextRoundDelivered uint64
	roundStart         bool

	// Startup full-pipe detection.
	fullBw      float64
	fullBwCount int
	filledPipe  bool

	pacingGain float64
	cwndGain   float64

	// ProbeBW gain cycling.
	cycleIndex int
	cycleStamp time.Duration

	// ProbeRTT bookkeeping.
	probeRTTDone  time.Duration
	priorCwnd     int
	probeRTTRound uint64
}

type bbrState int

const (
	bbrStartup bbrState = iota
	bbrDrain
	bbrProbeBW
	bbrProbeRTT
)

func (s bbrState) String() string {
	return [...]string{"startup", "drain", "probe-bw", "probe-rtt"}[s]
}

// BBR v1 constants.
const (
	bbrHighGain      = 2.885 // 2/ln2: fill the pipe in log2(BDP) rounds
	bbrDrainGain     = 1 / 2.885
	bbrCwndGain      = 2.0
	bbrBtlBwRounds   = 10
	bbrMinRTTWindow  = 10 * time.Second
	bbrProbeRTTTime  = 200 * time.Millisecond
	bbrMinCwndSegs   = 4
	bbrFullBwThresh  = 1.25
	bbrFullBwRounds  = 3
	bbrGainCycleLen  = 8
	bbrProbeBWUpGain = 1.25
	bbrProbeBWDnGain = 0.75
)

// NewBBR returns a BBR instance in startup.
func NewBBR() *BBR {
	return &BBR{state: bbrStartup, pacingGain: bbrHighGain, cwndGain: bbrHighGain, minRTT: -1}
}

// Name implements Algorithm.
func (*BBR) Name() string { return "bbr" }

// NeedsECN implements Algorithm.
func (*BBR) NeedsECN() bool { return false }

// Init implements Algorithm. It returns the instance to the state NewBBR
// built, keeping only the bandwidth filter's storage, so one instance
// can serve a recycled connection.
func (b *BBR) Init(c *Control, now time.Duration) {
	samples := b.btlBw.samples[:0]
	*b = *NewBBR()
	b.btlBw.samples = samples
	c.CWnd = InitialWindowSegments * c.MSS
	c.SSThresh = 1 << 30
	b.minRTTStamp = now
}

// State returns the current state name, for tests and monitoring.
func (b *BBR) State() string { return b.state.String() }

// OnAck implements Algorithm.
func (b *BBR) OnAck(c *Control, s *AckSample) {
	// Round accounting: a round trip elapses when a segment sent after
	// the previous round's close is acked.
	if s.Delivered >= b.nextRoundDelivered {
		b.nextRoundDelivered = s.Delivered + uint64(s.InFlight)
		b.roundCount++
		b.roundStart = true
	} else {
		b.roundStart = false
	}

	// Update the bandwidth model. App-limited samples only raise it.
	if s.DeliveryRate > 0 && (!s.AppLimited || s.DeliveryRate > b.btlBw.max()) {
		b.btlBw.update(s.DeliveryRate, b.roundCount, bbrBtlBwRounds)
	}
	// Update the propagation-delay model.
	if s.RTT > 0 && (b.minRTT <= 0 || s.RTT <= b.minRTT) {
		b.minRTT = s.RTT
		b.minRTTStamp = s.Now
	}

	b.checkFullPipe()
	b.advanceStateMachine(c, s)
	b.setControls(c, s)
}

func (b *BBR) checkFullPipe() {
	if b.filledPipe || !b.roundStart {
		return
	}
	bw := b.btlBw.max()
	if bw >= b.fullBw*bbrFullBwThresh {
		b.fullBw = bw
		b.fullBwCount = 0
		return
	}
	b.fullBwCount++
	if b.fullBwCount >= bbrFullBwRounds {
		b.filledPipe = true
	}
}

func (b *BBR) bdp(gain float64) int {
	bw := b.btlBw.max()
	if bw <= 0 || b.minRTT <= 0 {
		return 0
	}
	return int(gain * bw * b.minRTT.Seconds())
}

func (b *BBR) advanceStateMachine(c *Control, s *AckSample) {
	switch b.state {
	case bbrStartup:
		if b.filledPipe {
			b.state = bbrDrain
			b.pacingGain = bbrDrainGain
			b.cwndGain = bbrHighGain
		}
	case bbrDrain:
		if s.InFlight <= b.bdp(1.0) {
			b.enterProbeBW(s.Now)
		}
	case bbrProbeBW:
		// Advance the gain cycle once per minRTT.
		if b.minRTT > 0 && s.Now-b.cycleStamp > b.minRTT {
			b.cycleIndex = (b.cycleIndex + 1) % bbrGainCycleLen
			b.cycleStamp = s.Now
			b.pacingGain = b.cycleGain()
		}
	case bbrProbeRTT:
		if b.probeRTTDone > 0 && s.Now >= b.probeRTTDone && b.roundCount > b.probeRTTRound {
			b.minRTTStamp = s.Now
			c.CWnd = b.priorCwnd
			if b.filledPipe {
				b.enterProbeBW(s.Now)
			} else {
				b.state = bbrStartup
				b.pacingGain = bbrHighGain
				b.cwndGain = bbrHighGain
			}
		}
	}

	// Enter ProbeRTT when the propagation estimate goes stale.
	if b.state != bbrProbeRTT && b.minRTT > 0 && s.Now-b.minRTTStamp > bbrMinRTTWindow {
		b.state = bbrProbeRTT
		b.pacingGain = 1
		b.cwndGain = 1
		b.priorCwnd = c.CWnd
		b.probeRTTDone = s.Now + bbrProbeRTTTime
		b.probeRTTRound = b.roundCount
	}
}

func (b *BBR) enterProbeBW(now time.Duration) {
	b.state = bbrProbeBW
	b.cwndGain = bbrCwndGain
	b.cycleIndex = 0
	b.cycleStamp = now
	b.pacingGain = b.cycleGain()
}

func (b *BBR) cycleGain() float64 {
	switch b.cycleIndex {
	case 0:
		return bbrProbeBWUpGain
	case 1:
		return bbrProbeBWDnGain
	default:
		return 1.0
	}
}

func (b *BBR) setControls(c *Control, s *AckSample) {
	c.PacingRate = b.pacingGain * b.btlBw.max()

	if b.state == bbrProbeRTT {
		c.CWnd = bbrMinCwndSegs * c.MSS
		return
	}
	target := b.bdp(b.cwndGain)
	if target <= 0 {
		// No model yet: grow like slow start.
		c.CWnd += s.BytesAcked
		return
	}
	if min := bbrMinCwndSegs * c.MSS; target < min {
		target = min
	}
	if c.CWnd < target {
		c.CWnd += s.BytesAcked
		if c.CWnd > target {
			c.CWnd = target
		}
	} else {
		c.CWnd = target
	}
}

// OnLoss implements Algorithm. BBR v1 does not treat loss as a
// congestion signal; only an RTO collapses the window (conservation),
// and the model regrows it on the next ACKs.
func (b *BBR) OnLoss(c *Control, kind LossKind, _ time.Duration) {
	if kind == LossRTO {
		c.CWnd = c.MSS
	}
}

// bwFilter is a windowed-max filter over (round, bandwidth) samples.
type bwFilter struct {
	samples []bwSample
}

type bwSample struct {
	round uint64
	bw    float64
}

func (f *bwFilter) update(bw float64, round uint64, window uint64) {
	// Evict samples outside the window.
	keep := f.samples[:0]
	for _, s := range f.samples {
		if round-s.round < window {
			keep = append(keep, s)
		}
	}
	f.samples = keep
	// Dominance: drop older samples that the new one supersedes.
	for len(f.samples) > 0 && f.samples[len(f.samples)-1].bw <= bw {
		f.samples = f.samples[:len(f.samples)-1]
	}
	f.samples = append(f.samples, bwSample{round: round, bw: bw})
}

func (f *bwFilter) max() float64 {
	if len(f.samples) == 0 {
		return 0
	}
	return f.samples[0].bw
}
