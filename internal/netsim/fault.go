package netsim

import (
	"time"

	"netkernel/internal/sim"
)

// FaultConfig is a link's deterministic fault model. Every decision is
// drawn from the link's sim.RNG at Send time, so a seeded scenario
// replays the identical fault sequence regardless of downstream timing.
//
// Loss comes from either the two-state Gilbert–Elliott chain (GE, when
// non-nil) or the memoryless LossProb; the remaining knobs compose on
// top of whichever loss model is active.
type FaultConfig struct {
	// LossProb is a Bernoulli per-frame loss probability, the same
	// memoryless model LinkConfig.LossProb always had.
	LossProb float64
	// GE, when non-nil, replaces LossProb with a bursty Gilbert–Elliott
	// loss process. NewLink clones the instance, so each link runs an
	// independent chain even when two directions share a LinkConfig.
	GE *GilbertElliott
	// DupProb duplicates a frame: a second copy is delivered
	// back-to-back with the original.
	DupProb float64
	// CorruptProb flips one random bit of the frame before delivery,
	// leaving the inet checksums to catch the damage.
	CorruptProb float64
	// ReorderProb delays a frame by an extra uniform jitter in
	// (0, ReorderSpread], letting later frames overtake it.
	ReorderProb float64
	// ReorderSpread bounds the reordering jitter. Zero disables
	// reordering regardless of ReorderProb.
	ReorderSpread time.Duration
}

// GilbertElliott is the classic two-state Markov loss model for bursty
// channels: a good state with rare loss and a bad state with heavy
// loss, with per-frame transition probabilities between them. The chain
// state is held in the struct, so each link (or other user) needs its
// own instance; the zero value starts in the good state.
type GilbertElliott struct {
	// PGoodBad and PBadGood are the per-frame transition probabilities
	// good→bad and bad→good.
	PGoodBad, PBadGood float64
	// LossGood and LossBad are the per-frame loss probabilities within
	// each state.
	LossGood, LossBad float64

	bad bool
}

// Lost advances the chain one frame and reports whether that frame is
// lost. It consumes exactly two draws from rng per call.
func (g *GilbertElliott) Lost(rng *sim.RNG) bool {
	if g.bad {
		if rng.Bernoulli(g.PBadGood) {
			g.bad = false
		}
	} else {
		if rng.Bernoulli(g.PGoodBad) {
			g.bad = true
		}
	}
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	return rng.Bernoulli(p)
}

// frameFate is the set of per-frame fault decisions, all drawn when the
// frame is admitted so the RNG consumption order is timing-independent.
// It is packed into one word so it can ride in the serialisation event's
// arg: bit 0 lost, bit 1 duplicated, bit 2 corrupted, 24 bits of which
// bit to flip (frames up to 2 MiB), 37 bits of reordering jitter in
// nanoseconds (NewLink rejects a ReorderSpread beyond that).
type frameFate uint64

const (
	fateLost frameFate = 1 << iota
	fateDup
	fateCorrupt

	fateBitShift    = 3
	fateBitMask     = 1<<24 - 1
	fateJitterShift = 27
	maxReorder      = time.Duration(1)<<37 - 1
)

func (f frameFate) lost() bool { return f&fateLost != 0 }
func (f frameFate) dup() bool  { return f&fateDup != 0 }

// corruptBit returns which bit of the frame to flip, if any.
func (f frameFate) corruptBit() (int, bool) {
	return int(f >> fateBitShift & fateBitMask), f&fateCorrupt != 0
}

func (f frameFate) jitter() time.Duration { return time.Duration(f >> fateJitterShift) }

// drawFate consumes the link RNG for one frame. With an all-zero fault
// config no draws are consumed (Bernoulli(0) short-circuits), so
// configurations predating the fault model replay unchanged.
func (l *Link) drawFate(frameBits int) frameFate {
	if l.rng == nil {
		return 0
	}
	fc := &l.cfg.Faults
	var lost bool
	if fc.GE != nil {
		lost = fc.GE.Lost(l.rng)
	} else {
		lost = l.rng.Bernoulli(fc.LossProb)
	}
	if lost {
		return fateLost
	}
	var f frameFate
	if l.rng.Bernoulli(fc.CorruptProb) && frameBits > 0 {
		// Masking can only lower the index, so it stays inside the frame.
		f |= fateCorrupt | frameFate(l.rng.Intn(frameBits)&fateBitMask)<<fateBitShift
	}
	if l.rng.Bernoulli(fc.DupProb) {
		f |= fateDup
	}
	if fc.ReorderSpread > 0 && l.rng.Bernoulli(fc.ReorderProb) {
		f |= frameFate(1+l.rng.Intn(int(fc.ReorderSpread))) << fateJitterShift
	}
	return f
}

// SetDown takes the link down (frames that finish serializing while the
// link is down are dropped and counted as DownDrops) or brings it back
// up. Must be called from the clock's executor.
func (l *Link) SetDown(down bool) { l.down = down }

// ScheduleFlap schedules the link to go down at virtual time `at` from
// now and heal after `outage`. Flaps may overlap; the link is simply
// down whenever any scheduled outage covers the current time is not
// tracked — the last SetDown wins, so keep flaps disjoint for clean
// semantics.
func (l *Link) ScheduleFlap(at, outage time.Duration) {
	l.clock.AfterFunc(at, func() { l.SetDown(true) })
	l.clock.AfterFunc(at+outage, func() { l.SetDown(false) })
}
