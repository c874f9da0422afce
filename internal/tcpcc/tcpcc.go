// Package tcpcc implements pluggable TCP congestion control.
//
// The paper's thesis is that the provider can run any congestion
// control on a tenant's behalf regardless of the guest kernel: its
// prototype ships CUBIC and BBR NSMs and demonstrates a Windows VM
// (whose kernel speaks C-TCP) sending with BBR (§4.3). This package
// provides those algorithms — Reno, CUBIC, BBR, C-TCP, DCTCP — behind
// one interface so a Network Stack Module is just a stack plus a
// congestion-control name.
package tcpcc

import (
	"fmt"
	"sort"
	"time"
)

// InitialWindowSegments is the initial congestion window (RFC 6928).
const InitialWindowSegments = 10

// Control is the per-connection congestion state an Algorithm drives.
// Units are bytes throughout.
type Control struct {
	// MSS is the connection's maximum segment size.
	MSS int
	// CWnd is the congestion window.
	CWnd int
	// SSThresh is the slow-start threshold.
	SSThresh int
	// PacingRate, when positive, asks the connection to pace segments
	// at this many bytes per second instead of bursting the window.
	PacingRate float64
	// InRecovery is maintained by the connection: true between a loss
	// event and the recovery point being acked. Algorithms freeze
	// their growth while set.
	InRecovery bool
}

// Clamp enforces the floor of one segment.
func (c *Control) Clamp() {
	if c.CWnd < c.MSS {
		c.CWnd = c.MSS
	}
}

// AckSample carries the measurements delivered with one ACK.
type AckSample struct {
	// BytesAcked is how many new bytes this ACK cumulatively covers.
	BytesAcked int
	// RTT is the sample measured on this ACK (0 when unavailable,
	// e.g. acks of retransmitted data).
	RTT time.Duration
	// SRTT and MinRTT are the connection's smoothed and minimum RTTs.
	SRTT   time.Duration
	MinRTT time.Duration
	// DeliveryRate is the rate-sample estimate in bytes/sec (0 when
	// unavailable); AppLimited marks samples taken while the sender had
	// nothing to send.
	DeliveryRate float64
	AppLimited   bool
	// Delivered is the total bytes delivered so far (the rate-sample
	// "delivered" counter), used for round counting.
	Delivered uint64
	// InFlight is the bytes outstanding after processing this ACK.
	InFlight int
	// Underutilized reports that the sender is not using its whole
	// congestion window (buffer- or receiver-limited). Loss-based
	// algorithms freeze growth on such ACKs (RFC 7661): growing a
	// window that is not being validated only stores up a burst.
	Underutilized bool
	// ECE reports an ECN congestion echo on this ACK; MarkedBytes is
	// the portion of BytesAcked the receiver observed CE-marked.
	ECE         bool
	MarkedBytes int
	// Now is the current time on the connection's clock.
	Now time.Duration
}

// LossKind distinguishes recovery entries.
type LossKind int

// Loss kinds.
const (
	// LossFastRetransmit is dupack/SACK-triggered recovery.
	LossFastRetransmit LossKind = iota
	// LossRTO is a retransmission-timeout collapse.
	LossRTO
)

func (k LossKind) String() string {
	if k == LossRTO {
		return "rto"
	}
	return "fast-retransmit"
}

// Algorithm is one congestion-control implementation. Methods are
// invoked from the connection's clock executor, so implementations need
// no locking.
type Algorithm interface {
	// Name returns the registry name ("cubic", "bbr", …).
	Name() string
	// Init sets the initial window; c.MSS is already populated. It also
	// returns the instance to the state its constructor built, so an
	// instance a connection used can serve the next one.
	Init(c *Control, now time.Duration)
	// OnAck processes one ACK's measurements.
	OnAck(c *Control, s *AckSample)
	// OnLoss processes entry into recovery (once per loss event).
	OnLoss(c *Control, kind LossKind, now time.Duration)
	// NeedsECN reports whether the algorithm wants ECT-marked packets
	// and ECE feedback (DCTCP).
	NeedsECN() bool
}

// Factory builds a fresh Algorithm instance.
type Factory func() Algorithm

var registry = map[string]Factory{}

// Register adds a congestion-control factory under name. It panics on
// duplicates, like net/http handler registration.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("tcpcc: duplicate registration of " + name)
	}
	registry[name] = f
}

// New builds an algorithm by name.
func New(name string) (Algorithm, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("tcpcc: unknown congestion control %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists the registered algorithms, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("reno", func() Algorithm { return &Reno{} })
	Register("cubic", func() Algorithm { return NewCubic() })
	Register("bbr", func() Algorithm { return NewBBR() })
	Register("ctcp", func() Algorithm { return NewCTCP() })
	Register("dctcp", func() Algorithm { return NewDCTCP() })
}
