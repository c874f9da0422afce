package tcpcc

import "time"

// DCTCP implements Data Center TCP (Alizadeh et al., SIGCOMM 2010).
// Switches mark packets with ECN CE above a shallow queue threshold;
// the sender tracks the fraction α of marked bytes and shrinks the
// window proportionally (cwnd ← cwnd·(1−α/2)), keeping queues tiny.
//
// DCTCP is the §5 container scenario's stack of choice for the
// Spark-like job ("A container running a Spark task may use DCTCP for
// its traffic, while a web server container may need BBR or CUBIC"),
// which examples/containers reproduces.
type DCTCP struct {
	g     float64 // EWMA gain for α, standard 1/16
	alpha float64

	// Per-observation-window mark accounting.
	windowStart  uint64 // Delivered count that opens the window
	ackedBytes   int
	markedBytes  int
	everCongEncd bool
}

// NewDCTCP returns a DCTCP instance with the published defaults.
func NewDCTCP() *DCTCP {
	return &DCTCP{g: 1.0 / 16, alpha: 1}
}

// Name implements Algorithm.
func (*DCTCP) Name() string { return "dctcp" }

// NeedsECN implements Algorithm: DCTCP is ECN-based by construction.
func (*DCTCP) NeedsECN() bool { return true }

// Init implements Algorithm. It returns the instance to the state
// NewDCTCP built, so one instance can serve a recycled connection.
func (d *DCTCP) Init(c *Control, _ time.Duration) {
	*d = *NewDCTCP()
	c.CWnd = InitialWindowSegments * c.MSS
	c.SSThresh = 1 << 30
}

// Alpha returns the current marked-byte fraction estimate.
func (d *DCTCP) Alpha() float64 { return d.alpha }

// OnAck implements Algorithm.
func (d *DCTCP) OnAck(c *Control, s *AckSample) {
	if s.BytesAcked <= 0 {
		return
	}
	d.ackedBytes += s.BytesAcked
	if s.ECE {
		marked := s.MarkedBytes
		if marked == 0 {
			marked = s.BytesAcked
		}
		d.markedBytes += marked
		d.everCongEncd = true
	}

	// Close the observation window roughly once per RTT (one cwnd of
	// acked bytes), then update α and apply the proportional decrease.
	if s.Delivered >= d.windowStart {
		frac := 0.0
		if d.ackedBytes > 0 {
			frac = float64(d.markedBytes) / float64(d.ackedBytes)
			if frac > 1 {
				frac = 1
			}
		}
		d.alpha = (1-d.g)*d.alpha + d.g*frac
		if d.markedBytes > 0 && !c.InRecovery {
			reduced := int(float64(c.CWnd) * (1 - d.alpha/2))
			c.SSThresh = reduced
			c.CWnd = reduced
			c.Clamp()
		}
		d.ackedBytes, d.markedBytes = 0, 0
		d.windowStart = s.Delivered + uint64(c.CWnd)
	}

	if c.InRecovery || s.Underutilized {
		return
	}
	// Growth is standard slow start / congestion avoidance.
	if c.CWnd < c.SSThresh {
		c.CWnd += s.BytesAcked
		if c.CWnd > c.SSThresh {
			c.CWnd = c.SSThresh
		}
	} else {
		inc := c.MSS * s.BytesAcked / c.CWnd
		if inc < 1 {
			inc = 1
		}
		c.CWnd += inc
	}
}

// OnLoss implements Algorithm: actual loss falls back to Reno behaviour
// (DCTCP's ECN machinery only softens marks, not drops).
func (d *DCTCP) OnLoss(c *Control, kind LossKind, _ time.Duration) {
	half := c.CWnd / 2
	if half < 2*c.MSS {
		half = 2 * c.MSS
	}
	c.SSThresh = half
	if kind == LossRTO {
		c.CWnd = c.MSS
	} else {
		c.CWnd = half
	}
	c.Clamp()
}
