package tcp

import (
	"fmt"
	"time"

	"netkernel/internal/framepool"
	"netkernel/internal/sim"
	"netkernel/internal/tcpcc"
)

// ConnSnapshotVersion identifies the ConnSnapshot layout. Restore
// refuses snapshots of any other version: a migration between builds
// that disagree on the format must fail loudly and fall back to crash
// semantics rather than resurrect a half-understood connection
// (DESIGN.md §12).
const ConnSnapshotVersion = 1

// SegSnapshot is one tracked in-flight segment (the retransmission /
// SACK scoreboard entry) in serialized form.
type SegSnapshot struct {
	Seq                 uint32
	Length              int
	SentAt              sim.Time
	DeliveredAtSend     uint64
	DeliveredTimeAtSend sim.Time
	AppLimited          bool
	Retransmitted       bool
	Sacked              bool
	Fin                 bool
}

// OOOSnapshot is one buffered out-of-order run.
type OOOSnapshot struct {
	Seq  uint32
	Data []byte
	Fin  bool
}

// ConnSnapshot is the complete serialized state of one TCP connection:
// everything a fresh Conn on a different stack needs to continue the
// flow byte-exactly. Buffer contents are copied out of their backing
// storage (huge-page spans become plain bytes), so a snapshot holds no
// references into the donor stack's memory and the donor can release
// its chunks independently.
type ConnSnapshot struct {
	Version       int
	Local, Remote AddrPort
	State         State

	// Negotiated parameters.
	MSS        int
	PeerWScale uint8
	OurWScale  uint8
	SackOK     bool
	ECNEnabled bool
	Nagle      bool

	// Send sequence space and buffer.
	ISS, SndUna, SndNxt, SndMax uint32
	SndWnd                      int
	SendBuf                     []byte // bytes in [SndUna, SndUna+len)
	FinQueued, FinSent          bool
	FinSeq                      uint32

	// Retransmission and recovery.
	RTO, SRTT, RTTVar time.Duration
	Backoff           int
	Inflight          []SegSnapshot
	DupAcks           int
	InRecovery        bool
	Recover           uint32
	LastAckSeq        uint32

	// Rate sampling.
	Delivered   uint64
	DeliveredAt sim.Time

	// Receive sequence space and buffers.
	IRS, RcvNxt uint32
	RecvBuf     []byte
	OOO         []OOOSnapshot
	FinRcvd     bool

	// Acking bookkeeping.
	LastOOOSeq   uint32
	SackRotate   uint32
	UnackedSegs  int
	LastAdvWnd   int
	LastDataCE   bool
	ECNReactedAt sim.Time

	// Pacing.
	PaceNext sim.Time

	// TIME_WAIT residue.
	TimeWaitRemaining time.Duration

	// Congestion control: the algorithm name, its exported internals,
	// and the control block it drives.
	CC      string
	CCState tcpcc.State
	Ctrl    tcpcc.Control

	Stats Stats
}

// Snapshot serializes the connection. It is read-only: the connection
// keeps running afterwards (Detach stops it). Returns nil for a
// connection that is already closed.
func (c *Conn) Snapshot() *ConnSnapshot {
	if c.closed || c.state == StateClosed {
		return nil
	}
	s := &ConnSnapshot{
		Version: ConnSnapshotVersion,
		Local:   c.cfg.Local,
		Remote:  c.cfg.Remote,
		State:   c.state,

		MSS:        c.cfg.MSS,
		PeerWScale: c.peerWScale,
		OurWScale:  c.ourWScale,
		SackOK:     c.sackOK,
		ECNEnabled: c.ecnEnabled,
		Nagle:      c.cfg.Nagle,

		ISS:       c.iss,
		SndUna:    c.sndUna,
		SndNxt:    c.sndNxt,
		SndMax:    c.sndMax,
		SndWnd:    c.sndWnd,
		FinQueued: c.finQueued,
		FinSent:   c.finSent,
		FinSeq:    c.finSeq,

		RTO:        c.rto,
		SRTT:       c.srtt,
		RTTVar:     c.rttvar,
		Backoff:    c.backoff,
		DupAcks:    c.dupAcks,
		InRecovery: c.inRecovery,
		Recover:    c.recover,
		LastAckSeq: c.lastAckSeq,

		Delivered:   c.delivered,
		DeliveredAt: c.deliveredAt,

		IRS:     c.irs,
		RcvNxt:  c.rcvNxt,
		FinRcvd: c.finRcvd,

		LastOOOSeq:   c.lastOOOSeq,
		SackRotate:   c.sackRotate,
		UnackedSegs:  c.unackedSegs,
		LastAdvWnd:   c.lastAdvWnd,
		LastDataCE:   c.lastDataCE,
		ECNReactedAt: c.ecnReactedAt,

		PaceNext: c.paceNext,

		TimeWaitRemaining: c.TimeWaitRemaining(),

		CC:      c.cc.Name(),
		CCState: tcpcc.Save(c.cc),
		Ctrl:    c.ctrl,

		Stats: c.stats,
	}
	// Copy the unacknowledged byte-ring / span contents out of their
	// backing storage: huge-page chunks stay with the donor.
	if n := c.sndBuf.Len(); n > 0 {
		s.SendBuf = make([]byte, n)
		c.sndBuf.Peek(s.SendBuf, 0)
	}
	if n := c.rcvBuf.Len(); n > 0 {
		s.RecvBuf = make([]byte, n)
		c.rcvBuf.Peek(s.RecvBuf, 0)
	}
	for i := 0; i < c.inflight.len(); i++ {
		m := c.inflight.at(i)
		s.Inflight = append(s.Inflight, SegSnapshot{
			Seq:                 m.seq,
			Length:              m.length,
			SentAt:              m.sentAt,
			DeliveredAtSend:     m.deliveredAtSend,
			DeliveredTimeAtSend: m.deliveredTimeAtSend,
			AppLimited:          m.appLimited,
			Retransmitted:       m.retransmitted,
			Sacked:              m.sacked,
			Fin:                 m.fin,
		})
	}
	for _, o := range c.ooo {
		data := make([]byte, len(o.data))
		copy(data, o.data)
		s.OOO = append(s.OOO, OOOSnapshot{Seq: o.seq, Data: data, Fin: o.fin})
	}
	return s
}

// Detach tears the connection down silently for migration: every timer
// stops, borrowed spans release back to their pool, and the owner hook
// (stack demux deregistration) fires — but no application callback
// does. The guest-facing service keeps its bookkeeping and rewires it
// to the restored successor; firing OnClose here would tell the guest
// its connection died, which is exactly what migration exists to
// avoid.
func (c *Conn) Detach() {
	if c.closed {
		return
	}
	c.stop()
	if c.owner != nil {
		c.owner.ConnClosed(c)
	}
}

// Restore builds a connection from a snapshot on a new stack. The
// Config supplies the new environment (clock, output path, callbacks,
// congestion-control instance, buffer sizes); the snapshot supplies
// every negotiated and learned parameter. When cfg.CC's name matches
// the snapshot's, the algorithm's internals are restored too;
// otherwise — the congestion-control hot-swap path — the new algorithm
// keeps its fresh Init state and relearns the path.
//
// No segment is transmitted during Restore. Timers whose cause
// survives the handoff (RTO for in-flight data, TIME_WAIT residue,
// delayed ACK, zero-window persist) are re-armed; pacing resumes on
// the next send opportunity.
func Restore(cfg Config, s *ConnSnapshot) (*Conn, error) {
	c := new(Conn)
	if err := c.Restore(cfg, s); err != nil {
		return nil, err
	}
	return c, nil
}

// Restore rebuilds c, new or ended, from a snapshot, as the package's
// Restore does. On error c is left as it was.
func (c *Conn) Restore(cfg Config, s *ConnSnapshot) error {
	if s == nil {
		return fmt.Errorf("tcp: nil snapshot")
	}
	if s.Version != ConnSnapshotVersion {
		return fmt.Errorf("tcp: snapshot version %d, want %d", s.Version, ConnSnapshotVersion)
	}
	if s.State == StateClosed {
		return fmt.Errorf("tcp: cannot restore a closed connection")
	}
	cfg.fillDefaults()
	if cfg.SendBufSize < len(s.SendBuf) {
		return fmt.Errorf("tcp: send buffer %d too small for %d snapshot bytes", cfg.SendBufSize, len(s.SendBuf))
	}
	if cfg.RecvBufSize < len(s.RecvBuf) {
		return fmt.Errorf("tcp: recv buffer %d too small for %d snapshot bytes", cfg.RecvBufSize, len(s.RecvBuf))
	}
	cfg.Local, cfg.Remote = s.Local, s.Remote
	cfg.MSS = s.MSS
	cfg.Nagle = s.Nagle
	cfg.RNG = nil // the ISS below overrides; keep the RNG stream untouched
	iss := s.ISS
	cfg.ISS = &iss
	c.rebuild(cfg)

	c.state = s.State
	c.peerWScale = s.PeerWScale
	c.ourWScale = s.OurWScale
	c.sackOK = s.SackOK
	c.ecnEnabled = s.ECNEnabled

	c.sndUna, c.sndNxt, c.sndMax = s.SndUna, s.SndNxt, s.SndMax
	c.sndWnd = s.SndWnd
	c.finQueued, c.finSent, c.finSeq = s.FinQueued, s.FinSent, s.FinSeq
	c.sndBuf.Write(s.SendBuf)

	c.rto, c.srtt, c.rttvar = s.RTO, s.SRTT, s.RTTVar
	c.backoff = s.Backoff
	c.dupAcks = s.DupAcks
	c.inRecovery = s.InRecovery
	c.recover = s.Recover
	c.lastAckSeq = s.LastAckSeq

	c.delivered, c.deliveredAt = s.Delivered, s.DeliveredAt

	c.irs, c.rcvNxt = s.IRS, s.RcvNxt
	c.finRcvd = s.FinRcvd
	c.rcvBuf.Write(s.RecvBuf)
	for _, o := range s.OOO {
		c.ooo = append(c.ooo, oooSeg{seq: o.Seq, data: framepool.Clone(o.Data), fin: o.Fin})
		c.oooBytes += len(o.Data)
	}

	c.lastOOOSeq = s.LastOOOSeq
	c.sackRotate = s.SackRotate
	c.unackedSegs = s.UnackedSegs
	c.lastAdvWnd = s.LastAdvWnd
	c.lastDataCE = s.LastDataCE
	c.ecnReactedAt = s.ECNReactedAt
	c.paceNext = s.PaceNext

	for _, m := range s.Inflight {
		c.inflight.push(segMeta{
			seq:                 m.Seq,
			length:              m.Length,
			sentAt:              m.SentAt,
			deliveredAtSend:     m.DeliveredAtSend,
			deliveredTimeAtSend: m.DeliveredTimeAtSend,
			appLimited:          m.AppLimited,
			retransmitted:       m.Retransmitted,
			sacked:              m.Sacked && m.Length > 0, // as sack(): a bare FIN is never SACK-covered
			fin:                 m.Fin,
		})
	}

	// Congestion control: rebuild already ran cfg.CC.Init. A matching
	// algorithm gets its learned model and control block back; a
	// hot-swapped one keeps the fresh Init window and relearns, with
	// only the recovery flag carried over (the connection-level
	// recovery state machine is algorithm-independent).
	if tcpcc.Load(c.cc, s.CCState) && s.CC == c.cc.Name() {
		c.ctrl = s.Ctrl
		c.ctrl.MSS = cfg.MSS
	}
	c.ctrl.InRecovery = s.InRecovery

	c.stats = s.Stats

	// The connection established long ago; the callback must not
	// re-fire on the new stack.
	if s.State != StateSynSent && s.State != StateSynRcvd {
		c.onEstablishedFired = true
	}

	// Re-arm timers whose cause survived the handoff.
	switch {
	case s.State == StateTimeWait:
		c.stopRTO()
		d := s.TimeWaitRemaining
		if d <= 0 {
			d = time.Millisecond // expire promptly, but on the loop
		}
		c.armTimeWait(d)
	case c.sndUna != c.sndNxt || s.State == StateSynSent || s.State == StateSynRcvd:
		c.armRTO()
	default:
		c.stopRTO()
	}
	if c.unackedSegs > 0 && s.State != StateTimeWait {
		c.armDelack()
	}
	if c.sndWnd <= 0 && c.sndBuf.Len() > 0 {
		c.armPersist()
	}
	// A restored sender may hold transmittable work no future event
	// would otherwise push — paced bytes never sent, a queued FIN behind
	// an open window. Kick the send path once the restore event
	// completes; trySend itself respects state, window, and pacing — and
	// the kick is void once this incarnation has ended, even if the Conn
	// has been rebuilt by then.
	gen := c.gen
	cfg.Clock.AfterFunc(0, func() {
		if c.gen == gen && !c.closed {
			c.trySend()
		}
	})
	return nil
}
