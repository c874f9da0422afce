package netsim

import (
	"bytes"
	"testing"
	"time"

	"netkernel/internal/sim"
)

// reconcile asserts the link's conservation law: every offered frame is
// transmitted or dropped for exactly one reason.
func reconcile(t *testing.T, s LinkStats) {
	t.Helper()
	if s.Offered != s.TxFrames+s.LossDrops+s.QueueDrops+s.DownDrops {
		t.Fatalf("stats do not reconcile: %+v", s)
	}
}

func TestGilbertElliottBursty(t *testing.T) {
	// Mean burst length 10 frames, bad-state loss 0.8, good state clean:
	// losses must cluster far more than a Bernoulli process of the same
	// mean rate would.
	loop := sim.NewLoop()
	dst := &collector{clock: loop}
	cfg := LinkConfig{Faults: FaultConfig{
		GE: &GilbertElliott{PGoodBad: 0.01, PBadGood: 0.1, LossBad: 0.8},
	}}
	l := NewLink(loop, sim.NewRNG(7), cfg, dst)
	const frames = 20000
	lostRun, maxRun := 0, 0
	for i := 0; i < frames; i++ {
		before := l.Stats().LossDrops
		l.Send(make([]byte, 100))
		loop.Run()
		if l.Stats().LossDrops > before {
			lostRun++
			if lostRun > maxRun {
				maxRun = lostRun
			}
		} else {
			lostRun = 0
		}
	}
	s := l.Stats()
	reconcile(t, s)
	rate := float64(s.LossDrops) / frames
	if rate < 0.02 || rate > 0.15 {
		t.Fatalf("GE loss rate %.3f outside expected band", rate)
	}
	// A Bernoulli process at this rate would need ~10^7 frames to show a
	// run of 6; the bad state produces them readily.
	if maxRun < 4 {
		t.Fatalf("max loss run %d; GE losses should be bursty", maxRun)
	}
}

func TestDuplicationAndCorruption(t *testing.T) {
	loop := sim.NewLoop()
	dst := &collector{clock: loop}
	cfg := LinkConfig{QueueBytes: 1 << 30, Faults: FaultConfig{DupProb: 0.5, CorruptProb: 0.5}}
	l := NewLink(loop, sim.NewRNG(3), cfg, dst)
	const frames = 1000
	orig := bytes.Repeat([]byte{0xAA}, 64)
	for i := 0; i < frames; i++ {
		l.Send(append([]byte(nil), orig...))
	}
	loop.Run()
	s := l.Stats()
	reconcile(t, s)
	if s.DupFrames < frames/3 || s.DupFrames > 2*frames/3 {
		t.Fatalf("DupFrames = %d of %d", s.DupFrames, frames)
	}
	if got := uint64(len(dst.frames)); got != s.TxFrames+s.DupFrames {
		t.Fatalf("delivered %d frames, want TxFrames+DupFrames = %d", got, s.TxFrames+s.DupFrames)
	}
	// Corrupted frames differ from the original in exactly one bit;
	// duplicates are clean copies made before the flip.
	var corrupt int
	for _, f := range dst.frames {
		diff := 0
		for i := range f {
			for b := f[i] ^ orig[i]; b != 0; b &= b - 1 {
				diff++
			}
		}
		if diff > 1 {
			t.Fatalf("frame differs in %d bits, want ≤ 1", diff)
		}
		if diff == 1 {
			corrupt++
		}
	}
	if uint64(corrupt) != s.CorruptFrames {
		t.Fatalf("observed %d corrupt frames, stats say %d", corrupt, s.CorruptFrames)
	}
	if s.CorruptFrames < frames/3 {
		t.Fatalf("CorruptFrames = %d of %d", s.CorruptFrames, frames)
	}
}

func TestReorderJitterOvertakes(t *testing.T) {
	loop := sim.NewLoop()
	dst := &collector{clock: loop}
	cfg := LinkConfig{
		Rate:  1 * Gbps,
		Delay: 10 * time.Microsecond,
		Faults: FaultConfig{
			ReorderProb:   0.3,
			ReorderSpread: 500 * time.Microsecond,
		},
	}
	l := NewLink(loop, sim.NewRNG(11), cfg, dst)
	const frames = 500
	for i := 0; i < frames; i++ {
		l.Send([]byte{byte(i), byte(i >> 8)})
	}
	loop.Run()
	s := l.Stats()
	reconcile(t, s)
	if s.ReorderedFrames == 0 {
		t.Fatal("no frames were jittered")
	}
	if len(dst.frames) != frames {
		t.Fatalf("delivered %d, want %d", len(dst.frames), frames)
	}
	inversions := 0
	prev := -1
	for _, f := range dst.frames {
		seq := int(f[0]) | int(f[1])<<8
		if seq < prev {
			inversions++
		}
		prev = seq
	}
	if inversions == 0 {
		t.Fatal("jitter produced no reordering")
	}
}

func TestLinkFlapDropsAndHeals(t *testing.T) {
	loop := sim.NewLoop()
	dst := &collector{clock: loop}
	l := NewLink(loop, sim.NewRNG(1), LinkConfig{Rate: 8 * Mbps}, dst)
	// Down between 10 ms and 20 ms; 1000-byte frames serialize in 1 ms.
	l.ScheduleFlap(10*time.Millisecond, 10*time.Millisecond)
	for i := 0; i < 30; i++ {
		loop.AfterFunc(time.Duration(i)*time.Millisecond, func() {
			l.Send(make([]byte, 1000))
		})
	}
	loop.Run()
	s := l.Stats()
	reconcile(t, s)
	if s.DownDrops == 0 {
		t.Fatal("no frames dropped during the outage")
	}
	if s.TxFrames == 0 || s.TxFrames+s.DownDrops != 30 {
		t.Fatalf("TxFrames=%d DownDrops=%d, want them to sum to 30", s.TxFrames, s.DownDrops)
	}
	if l.down {
		t.Fatal("link still down after scheduled heal")
	}
}

func TestLossProbBackCompat(t *testing.T) {
	// The historical LossProb knob must keep driving losses when the new
	// Faults block is untouched (WAN profile path).
	loop := sim.NewLoop()
	dst := &collector{clock: loop}
	l := NewLink(loop, sim.NewRNG(5), LinkConfig{LossProb: 0.3, QueueBytes: 1 << 30}, dst)
	const frames = 2000
	for i := 0; i < frames; i++ {
		l.Send(make([]byte, 64))
	}
	loop.Run()
	s := l.Stats()
	reconcile(t, s)
	rate := float64(s.LossDrops) / frames
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("LossProb=0.3 produced loss rate %.3f", rate)
	}
}

func TestFaultSequenceDeterministic(t *testing.T) {
	run := func() (LinkStats, int) {
		loop := sim.NewLoop()
		dst := &collector{clock: loop}
		l := NewLink(loop, sim.NewRNG(42), LossyReorderLAN(), dst)
		for i := 0; i < 2000; i++ {
			l.Send(make([]byte, 200))
		}
		loop.Run()
		return l.Stats(), len(dst.frames)
	}
	s1, n1 := run()
	s2, n2 := run()
	if s1 != s2 || n1 != n2 {
		t.Fatalf("same seed diverged:\n%+v (%d frames)\n%+v (%d frames)", s1, n1, s2, n2)
	}
}
