package tcpcc

import (
	"testing"
	"time"
)

const mss = 1448

func newControl() *Control {
	return &Control{MSS: mss}
}

func TestRegistryHasAllAlgorithms(t *testing.T) {
	want := []string{"bbr", "ctcp", "cubic", "dctcp", "reno"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		a, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if a.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, a.Name())
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("quic"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("reno", func() Algorithm { return &Reno{} })
}

func TestFreshInstancesPerConnection(t *testing.T) {
	a, _ := New("cubic")
	b, _ := New("cubic")
	if a == b {
		t.Fatal("factory returned a shared instance")
	}
}

// --- Reno ---

func TestRenoSlowStartDoubles(t *testing.T) {
	c := newControl()
	r := &Reno{}
	r.Init(c, 0)
	initial := c.CWnd
	// Ack one full window: slow start should double it.
	r.OnAck(c, &AckSample{BytesAcked: initial, RTT: time.Millisecond, Now: time.Millisecond})
	if c.CWnd != 2*initial {
		t.Fatalf("cwnd = %d after acking %d, want %d", c.CWnd, initial, 2*initial)
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	c := newControl()
	r := &Reno{}
	r.Init(c, 0)
	c.CWnd = 100 * mss
	c.SSThresh = 50 * mss // below cwnd: CA mode
	before := c.CWnd
	// One window of acks ≈ +1 MSS.
	for acked := 0; acked < before; acked += mss {
		r.OnAck(c, &AckSample{BytesAcked: mss})
	}
	gain := c.CWnd - before
	if gain < mss/2 || gain > 2*mss {
		t.Fatalf("CA gain over one RTT = %d bytes, want ≈1 MSS", gain)
	}
}

func TestRenoLossHalves(t *testing.T) {
	c := newControl()
	r := &Reno{}
	r.Init(c, 0)
	c.CWnd = 100 * mss
	r.OnLoss(c, LossFastRetransmit, 0)
	if c.CWnd != 50*mss || c.SSThresh != 50*mss {
		t.Fatalf("after fast retransmit cwnd=%d ssthresh=%d", c.CWnd/mss, c.SSThresh/mss)
	}
	c.CWnd = 100 * mss
	r.OnLoss(c, LossRTO, 0)
	if c.CWnd != mss {
		t.Fatalf("after RTO cwnd = %d segments, want 1", c.CWnd/mss)
	}
}

func TestRenoFrozenInRecovery(t *testing.T) {
	c := newControl()
	r := &Reno{}
	r.Init(c, 0)
	c.InRecovery = true
	before := c.CWnd
	r.OnAck(c, &AckSample{BytesAcked: 10 * mss})
	if c.CWnd != before {
		t.Fatal("cwnd grew during recovery")
	}
}

// --- CUBIC ---

func TestCubicReductionFactor(t *testing.T) {
	c := newControl()
	cu := NewCubic()
	cu.Init(c, 0)
	c.CWnd = 100 * mss
	cu.OnLoss(c, LossFastRetransmit, 0)
	want := int(100 * 0.7 * mss)
	if c.CWnd < want-mss || c.CWnd > want+mss {
		t.Fatalf("cwnd after loss = %d segs, want ≈70", c.CWnd/mss)
	}
}

func TestCubicConcaveRegrowth(t *testing.T) {
	// After a loss, CUBIC regrows quickly at first (toward wMax), then
	// flattens near wMax: the increment in the first interval must
	// exceed the increment near the plateau.
	c := newControl()
	cu := NewCubic()
	cu.Init(c, 0)
	c.CWnd = 200 * mss
	cu.OnLoss(c, LossFastRetransmit, 0) // wMax=200, cwnd=140
	c.SSThresh = c.CWnd

	// Bulk-transfer ack stream: one tenth of the window per step, ten
	// steps per RTT, run past K (≈5.3 s for wMax=200, cwnd=140). The
	// RTT is long (100 ms) so the cubic term, not the TCP-friendly
	// Reno estimate, governs growth.
	rtt := 100 * time.Millisecond
	now := time.Duration(0)
	cwndBy := map[time.Duration]int{}
	for now < 5300*time.Millisecond {
		now += rtt / 10
		cu.OnAck(c, &AckSample{BytesAcked: c.CWnd / 10, SRTT: rtt, Now: now})
		cwndBy[now.Round(time.Second)] = c.CWnd
	}
	early := cwndBy[time.Second] - (140 * mss)
	late := cwndBy[5*time.Second] - cwndBy[4*time.Second]
	if early <= late {
		t.Fatalf("growth not concave: first second %+d, fifth second %+d", early, late)
	}
	// Must approach wMax (200 segments) near t=K.
	if got := c.CWnd / mss; got < 180 || got > 230 {
		t.Fatalf("regrew to %d segments, want ≈200", got)
	}
}

func TestCubicRTOCollapses(t *testing.T) {
	c := newControl()
	cu := NewCubic()
	cu.Init(c, 0)
	c.CWnd = 50 * mss
	cu.OnLoss(c, LossRTO, 0)
	if c.CWnd != mss {
		t.Fatalf("cwnd after RTO = %d segments", c.CWnd/mss)
	}
}

func TestCubicFastConvergence(t *testing.T) {
	c := newControl()
	cu := NewCubic()
	cu.Init(c, 0)
	c.CWnd = 100 * mss
	cu.OnLoss(c, LossFastRetransmit, 0)
	firstWMax := cu.wMax
	// Second loss below the previous peak: wMax must drop below cwnd
	// (fast convergence releases bandwidth for newcomers).
	cu.OnLoss(c, LossFastRetransmit, 0)
	if cu.wMax >= firstWMax {
		t.Fatalf("wMax %v did not shrink from %v", cu.wMax, firstWMax)
	}
}

// --- BBR ---

// driveBBR feeds a synthetic path: bandwidth bw bytes/s, rtt fixed.
func driveBBR(b *BBR, c *Control, bw float64, rtt time.Duration, rounds int, start time.Duration) time.Duration {
	now := start
	var delivered uint64
	for i := 0; i < rounds; i++ {
		perRound := int(bw * rtt.Seconds())
		acks := perRound / (10 * mss)
		if acks < 1 {
			acks = 1
		}
		for j := 0; j < acks; j++ {
			now += rtt / time.Duration(acks)
			delivered += uint64(10 * mss)
			b.OnAck(c, &AckSample{
				BytesAcked:   10 * mss,
				RTT:          rtt,
				SRTT:         rtt,
				MinRTT:       rtt,
				DeliveryRate: bw,
				Delivered:    delivered,
				InFlight:     int(bw * rtt.Seconds()),
				Now:          now,
			})
		}
	}
	return now
}

func TestBBRStartupToProbeBW(t *testing.T) {
	c := newControl()
	b := NewBBR()
	b.Init(c, 0)
	if b.State() != "startup" {
		t.Fatalf("initial state %s", b.State())
	}
	// Constant delivery rate: growth stalls → full pipe → drain → probe-bw.
	driveBBR(b, c, 1.5e6, 100*time.Millisecond, 12, 0)
	if b.State() != "probe-bw" {
		t.Fatalf("state after plateau = %s, want probe-bw", b.State())
	}
	if got := b.BtlBw(); got < 1.4e6 || got > 1.6e6 {
		t.Fatalf("BtlBw = %.0f, want ≈1.5e6", got)
	}
}

func TestBBRCwndTracksBDP(t *testing.T) {
	c := newControl()
	b := NewBBR()
	b.Init(c, 0)
	bw, rtt := 1.5e6, 100*time.Millisecond
	driveBBR(b, c, bw, rtt, 30, 0)
	bdp := int(bw * rtt.Seconds())
	if c.CWnd < bdp || c.CWnd > 3*bdp {
		t.Fatalf("cwnd = %d, want within [BDP, 3·BDP] = [%d, %d]", c.CWnd, bdp, 3*bdp)
	}
}

func TestBBRPacingRateSet(t *testing.T) {
	c := newControl()
	b := NewBBR()
	b.Init(c, 0)
	driveBBR(b, c, 1.5e6, 100*time.Millisecond, 12, 0)
	if c.PacingRate < 1e6 || c.PacingRate > 2.2e6 {
		t.Fatalf("PacingRate = %.0f, want ≈BtlBw·gain", c.PacingRate)
	}
}

func TestBBRIgnoresFastRetransmit(t *testing.T) {
	c := newControl()
	b := NewBBR()
	b.Init(c, 0)
	driveBBR(b, c, 1.5e6, 100*time.Millisecond, 12, 0)
	before := c.CWnd
	b.OnLoss(c, LossFastRetransmit, 0)
	if c.CWnd != before {
		t.Fatal("BBR reacted to a fast retransmit")
	}
	b.OnLoss(c, LossRTO, 0)
	if c.CWnd != mss {
		t.Fatal("BBR did not collapse on RTO")
	}
}

func TestBBREntersProbeRTTWhenStale(t *testing.T) {
	c := newControl()
	b := NewBBR()
	b.Init(c, 0)
	now := driveBBR(b, c, 1.5e6, 100*time.Millisecond, 12, 0)
	// Keep acking for >10 s without a new RTT minimum (RTT inflated so
	// the 100 ms min never refreshes).
	var state string
	delivered := uint64(1 << 40)
	for i := 0; i < 120; i++ {
		now += 100 * time.Millisecond
		delivered += 10 * mss
		b.OnAck(c, &AckSample{
			BytesAcked: 10 * mss, RTT: 150 * time.Millisecond, SRTT: 150 * time.Millisecond,
			DeliveryRate: 1.5e6, Delivered: delivered, InFlight: 20000, Now: now,
		})
		if b.State() == "probe-rtt" {
			state = b.State()
			break
		}
	}
	if state != "probe-rtt" {
		t.Fatalf("never entered probe-rtt; state=%s", b.State())
	}
	if c.CWnd != bbrMinCwndSegs*mss {
		t.Fatalf("probe-rtt cwnd = %d segments, want %d", c.CWnd/mss, bbrMinCwndSegs)
	}
}

func TestBWFilterWindowedMax(t *testing.T) {
	var f bwFilter
	f.update(100, 1, 10)
	f.update(300, 2, 10)
	f.update(200, 3, 10)
	if f.max() != 300 {
		t.Fatalf("max = %v, want 300", f.max())
	}
	// Round 13: the 300 sample (round 2) ages out; 200 (round 3) too.
	f.update(50, 13, 10)
	if f.max() != 50 {
		t.Fatalf("max after expiry = %v, want 50", f.max())
	}
}

// --- C-TCP ---

func TestCTCPDelayWindowGrowsOnUncongestedPath(t *testing.T) {
	c := newControl()
	ct := NewCTCP()
	ct.Init(c, 0)
	c.SSThresh = 20 * mss // leave slow start quickly
	rtt := 100 * time.Millisecond
	now := time.Duration(0)
	for i := 0; i < 500; i++ {
		now += rtt / 10
		ct.OnAck(c, &AckSample{BytesAcked: mss, RTT: rtt, SRTT: rtt, Now: now})
	}
	if ct.Dwnd() == 0 {
		t.Fatal("dwnd never grew on an uncongested path")
	}
	reno := &Reno{}
	rc := newControl()
	reno.Init(rc, 0)
	rc.SSThresh = 20 * mss
	for i := 0; i < 500; i++ {
		reno.OnAck(rc, &AckSample{BytesAcked: mss, RTT: rtt, SRTT: rtt})
	}
	if c.CWnd <= rc.CWnd {
		t.Fatalf("CTCP (%d) not faster than Reno (%d) on a long-fat path", c.CWnd/mss, rc.CWnd/mss)
	}
}

func TestCTCPDelayWindowRetreatsOnQueueing(t *testing.T) {
	c := newControl()
	ct := NewCTCP()
	ct.Init(c, 0)
	c.SSThresh = 20 * mss
	base := 100 * time.Millisecond
	now := time.Duration(0)
	// Grow dwnd on a clean path first.
	for i := 0; i < 300; i++ {
		now += base / 10
		ct.OnAck(c, &AckSample{BytesAcked: mss, RTT: base, SRTT: base, Now: now})
	}
	grown := ct.Dwnd()
	if grown == 0 {
		t.Fatal("precondition: dwnd did not grow")
	}
	// Now inflate the RTT (queue building): dwnd must retreat.
	for i := 0; i < 300; i++ {
		now += base
		ct.OnAck(c, &AckSample{BytesAcked: mss, RTT: 4 * base, SRTT: 4 * base, Now: now})
	}
	if ct.Dwnd() >= grown {
		t.Fatalf("dwnd %d did not retreat from %d under queueing", ct.Dwnd(), grown)
	}
}

func TestCTCPLossHalves(t *testing.T) {
	c := newControl()
	ct := NewCTCP()
	ct.Init(c, 0)
	c.CWnd = 100 * mss
	ct.lossWnd = 80 * mss
	ct.dwnd = 20 * mss
	ct.OnLoss(c, LossFastRetransmit, 0)
	if c.CWnd > 60*mss || c.CWnd < 40*mss {
		t.Fatalf("cwnd after loss = %d segments, want ≈50", c.CWnd/mss)
	}
	ct.OnLoss(c, LossRTO, 0)
	if ct.Dwnd() != 0 {
		t.Fatal("dwnd survived an RTO")
	}
}

// --- DCTCP ---

func TestDCTCPNeedsECN(t *testing.T) {
	if !NewDCTCP().NeedsECN() {
		t.Fatal("DCTCP must request ECN")
	}
	for _, name := range []string{"reno", "cubic", "bbr", "ctcp"} {
		a, _ := New(name)
		if a.NeedsECN() {
			t.Fatalf("%s requests ECN", name)
		}
	}
}

func TestDCTCPAlphaConvergesToMarkFraction(t *testing.T) {
	c := newControl()
	d := NewDCTCP()
	d.Init(c, 0)
	var delivered uint64
	// Every byte marked → α → 1.
	for i := 0; i < 400; i++ {
		delivered += mss
		d.OnAck(c, &AckSample{BytesAcked: mss, ECE: true, MarkedBytes: mss, Delivered: delivered})
	}
	if d.Alpha() < 0.9 {
		t.Fatalf("α = %v under full marking, want →1", d.Alpha())
	}
	// Then an unmarked epoch: α decays toward 0.
	for i := 0; i < 4000; i++ {
		delivered += mss
		d.OnAck(c, &AckSample{BytesAcked: mss, Delivered: delivered})
	}
	if d.Alpha() > 0.1 {
		t.Fatalf("α = %v after marks stopped, want →0", d.Alpha())
	}
}

func TestDCTCPGentleReduction(t *testing.T) {
	// With a small α, the window reduction must be proportional (≪ half).
	c := newControl()
	d := NewDCTCP()
	d.Init(c, 0)
	d.alpha = 0.1
	c.CWnd = 100 * mss
	c.SSThresh = 50 * mss
	var delivered uint64 = 1 // past windowStart=0
	d.windowStart = 0
	d.OnAck(c, &AckSample{BytesAcked: mss, ECE: true, MarkedBytes: mss, Delivered: delivered})
	// cwnd·(1−α′/2) with α′ ≈ 0.15 → ≈92–97 segments, plus growth.
	if c.CWnd < 90*mss || c.CWnd > 100*mss {
		t.Fatalf("cwnd after gentle mark = %d segments", c.CWnd/mss)
	}
}

func TestDCTCPLossStillHalves(t *testing.T) {
	c := newControl()
	d := NewDCTCP()
	d.Init(c, 0)
	c.CWnd = 100 * mss
	d.OnLoss(c, LossFastRetransmit, 0)
	if c.CWnd != 50*mss {
		t.Fatalf("cwnd after loss = %d segments, want 50", c.CWnd/mss)
	}
}

// --- shared ---

func TestControlClamp(t *testing.T) {
	c := newControl()
	c.CWnd = 10
	c.Clamp()
	if c.CWnd != mss {
		t.Fatalf("Clamp → %d, want %d", c.CWnd, mss)
	}
}

func TestLossKindString(t *testing.T) {
	if LossFastRetransmit.String() != "fast-retransmit" || LossRTO.String() != "rto" {
		t.Fatal("LossKind String broken")
	}
}

func TestAllAlgorithmsSurviveAckStorm(t *testing.T) {
	// Robustness: every algorithm must keep cwnd ≥ 1 MSS through an
	// adversarial mix of acks and losses.
	for _, name := range Names() {
		a, _ := New(name)
		c := newControl()
		a.Init(c, 0)
		now := time.Duration(0)
		var delivered uint64
		for i := 0; i < 2000; i++ {
			now += time.Millisecond
			switch i % 7 {
			case 3:
				a.OnLoss(c, LossFastRetransmit, now)
			case 6:
				a.OnLoss(c, LossRTO, now)
			default:
				delivered += mss
				a.OnAck(c, &AckSample{
					BytesAcked: mss, RTT: time.Millisecond * time.Duration(1+i%50),
					SRTT: 10 * time.Millisecond, DeliveryRate: 1e6,
					Delivered: delivered, InFlight: c.CWnd, Now: now,
				})
			}
			if c.CWnd < mss {
				t.Fatalf("%s: cwnd fell to %d at step %d", name, c.CWnd, i)
			}
		}
	}
}

// BtlBw returns the current bottleneck-bandwidth estimate in bytes/sec.
func (b *BBR) BtlBw() float64 { return b.btlBw.max() }

// Dwnd returns the delay-based window component in bytes (for tests and
// monitoring).
func (ct *CTCP) Dwnd() int { return int(ct.dwnd) }
