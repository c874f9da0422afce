package tcpcc

import (
	"math"
	"time"
)

// Cubic implements CUBIC congestion control (RFC 8312), the Linux
// default the paper uses for its Figure 4 NSM and the "Linux Cubic"
// baseline in Figure 5. Window growth in congestion avoidance follows
// W(t) = C·(t−K)³ + Wmax with a TCP-friendly floor.
type Cubic struct {
	// RFC 8312 constants.
	c    float64 // aggressiveness, segments/sec³
	beta float64 // multiplicative decrease factor

	wMax       float64 // window before the last reduction, segments
	k          float64 // time to regrow to wMax, seconds
	epochStart time.Duration
	wEst       float64 // TCP-friendly (Reno) window estimate, segments
}

// NewCubic returns a CUBIC instance with standard constants.
func NewCubic() *Cubic {
	return &Cubic{c: 0.4, beta: 0.7}
}

// Name implements Algorithm.
func (*Cubic) Name() string { return "cubic" }

// NeedsECN implements Algorithm.
func (*Cubic) NeedsECN() bool { return false }

// Init implements Algorithm. It returns the instance to the state
// NewCubic built, so one instance can serve a recycled connection.
func (cu *Cubic) Init(c *Control, now time.Duration) {
	*cu = *NewCubic()
	c.CWnd = InitialWindowSegments * c.MSS
	c.SSThresh = 1 << 30
	cu.epochStart = -1
}

// OnAck implements Algorithm.
func (cu *Cubic) OnAck(c *Control, s *AckSample) {
	if c.InRecovery || s.BytesAcked <= 0 {
		return
	}
	if s.Underutilized {
		// Window validation (RFC 7661): do not grow past what the
		// application uses; restart the epoch so the cubic clock does
		// not run ahead while idle.
		cu.epochStart = -1
		return
	}
	if c.CWnd < c.SSThresh {
		c.CWnd += s.BytesAcked
		if c.CWnd > c.SSThresh {
			c.CWnd = c.SSThresh
		}
		return
	}

	cwndSeg := float64(c.CWnd) / float64(c.MSS)
	if cu.epochStart < 0 {
		cu.epochStart = s.Now
		if cwndSeg < cu.wMax {
			cu.k = math.Cbrt((cu.wMax - cwndSeg) / cu.c)
		} else {
			cu.k = 0
			cu.wMax = cwndSeg
		}
		cu.wEst = cwndSeg
	}

	t := (s.Now - cu.epochStart).Seconds()
	rtt := s.SRTT.Seconds()
	if rtt <= 0 {
		rtt = 0.1
	}
	// Target one RTT ahead, per RFC 8312 §4.1.
	target := cu.c*math.Pow(t+rtt-cu.k, 3) + cu.wMax

	// TCP-friendly region (RFC 8312 §4.2): emulate Reno-rate growth so
	// CUBIC never does worse than standard TCP on short-RTT paths.
	cu.wEst += 3.0 * (1 - cu.beta) / (1 + cu.beta) * float64(s.BytesAcked) / (cwndSeg * float64(c.MSS))
	if cu.wEst > target {
		target = cu.wEst
	}

	if target > cwndSeg {
		// Spread the increase over one window's worth of acks.
		incSeg := (target - cwndSeg) / cwndSeg * float64(s.BytesAcked) / float64(c.MSS)
		c.CWnd += int(incSeg * float64(c.MSS))
	}
	c.Clamp()
}

// OnLoss implements Algorithm.
func (cu *Cubic) OnLoss(c *Control, kind LossKind, now time.Duration) {
	cwndSeg := float64(c.CWnd) / float64(c.MSS)
	// Fast convergence (RFC 8312 §4.6): release bandwidth faster when
	// the window is still below the previous peak.
	if cwndSeg < cu.wMax {
		cu.wMax = cwndSeg * (1 + cu.beta) / 2
	} else {
		cu.wMax = cwndSeg
	}
	cu.epochStart = -1

	reduced := int(cwndSeg * cu.beta * float64(c.MSS))
	if reduced < 2*c.MSS {
		reduced = 2 * c.MSS
	}
	c.SSThresh = reduced
	if kind == LossRTO {
		c.CWnd = c.MSS
	} else {
		c.CWnd = reduced
	}
	c.Clamp()
}
