package tcp

import (
	"bytes"
	"fmt"
	"time"

	"netkernel/internal/framepool"
	"netkernel/internal/tcpcc"
)

// ConnSnapshotVersion identifies the ConnSnapshot layout. Restore
// refuses snapshots of any other version: a migration between builds
// that disagree on the format must fail loudly and fall back to crash
// semantics rather than resurrect a half-understood connection
// (DESIGN.md §12).
const ConnSnapshotVersion = 3

// ConnSnapshot is the complete serialized state of one TCP connection:
// everything a fresh Conn on a different stack needs to continue the
// flow byte-exactly. That is the connection's state block, whole, plus
// its buffers. Buffer contents are copied out of their backing storage
// (huge-page spans and pool frames become plain bytes), so a snapshot
// holds no references into the donor stack's memory and the donor can
// release its chunks independently.
type ConnSnapshot struct {
	Version       int
	Local, Remote AddrPort

	// Congestion control: the algorithm name and its exported
	// internals. The control block it drives is in the tcb.
	CC      string
	CCState tcpcc.State

	tcb

	SendBuf  []byte    // bytes in [sndUna, sndUna+len)
	RecvBuf  []byte    // in-order bytes not yet read
	Inflight []segMeta // the scoreboard, oldest first
	OOO      []oooSeg  // the reorder queue, data copied out of its frames
}

// State returns the snapshotted connection's state.
func (s *ConnSnapshot) State() State { return s.state }

// ISS returns the snapshotted connection's initial send sequence number.
func (s *ConnSnapshot) ISS() uint32 { return s.iss }

// Snapshot serializes the connection. It is read-only: the connection
// keeps running afterwards (Detach stops it). Returns nil for a
// connection that is already closed.
func (c *Conn) Snapshot() *ConnSnapshot {
	if c.closed || c.state == StateClosed {
		return nil
	}
	s := &ConnSnapshot{
		Version:  ConnSnapshotVersion,
		Local:    c.cfg.Local,
		Remote:   c.cfg.Remote,
		CC:       c.cc.Name(),
		CCState:  tcpcc.Save(c.cc),
		tcb:      c.tcb,
		Inflight: c.inflight.appendTo(nil),
	}
	if n := c.sndBuf.Len(); n > 0 {
		s.SendBuf = make([]byte, n)
		c.sndBuf.Peek(s.SendBuf, 0)
	}
	if n := c.rcvBuf.Len(); n > 0 {
		s.RecvBuf = make([]byte, n)
		c.rcvBuf.Peek(s.RecvBuf, 0)
	}
	for _, o := range c.ooo {
		o.data = bytes.Clone(o.data)
		s.OOO = append(s.OOO, o)
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

// Restore rebuilds c, new or ended, from a snapshot taken on another
// stack. The Config supplies the new environment (clock, output path,
// callbacks, congestion-control instance, buffer sizes); the snapshot
// supplies every negotiated and learned parameter. When cfg.CC's name
// matches the snapshot's, the algorithm's internals are restored too;
// otherwise — the congestion-control hot-swap path — the new algorithm
// keeps its fresh Init state and relearns the path. A snapshot no live
// connection could have produced is refused, and on error c is left as
// it was.
//
// No segment is transmitted during Restore. Timers whose cause
// survives the handoff (RTO for in-flight data, TIME_WAIT residue,
// delayed ACK, zero-window persist) are re-armed; pacing resumes on
// the next send opportunity.
func (c *Conn) Restore(cfg Config, s *ConnSnapshot) error {
	if s == nil {
		return fmt.Errorf("tcp: nil snapshot")
	}
	if s.Version != ConnSnapshotVersion {
		return fmt.Errorf("tcp: snapshot version %d, want %d", s.Version, ConnSnapshotVersion)
	}
	if err := s.check(s.Inflight); err != nil {
		return fmt.Errorf("tcp: impossible snapshot: %w", err)
	}
	cfg.fillDefaults()
	if cfg.SendBufSize < len(s.SendBuf) {
		return fmt.Errorf("tcp: send buffer %d too small for %d snapshot bytes", cfg.SendBufSize, len(s.SendBuf))
	}
	if cfg.RecvBufSize < len(s.RecvBuf) {
		return fmt.Errorf("tcp: recv buffer %d too small for %d snapshot bytes", cfg.RecvBufSize, len(s.RecvBuf))
	}
	cfg.Local, cfg.Remote = s.Local, s.Remote
	cfg.MSS = s.ctrl.MSS
	cfg.RNG = nil // the ISS below overrides; keep the RNG stream untouched
	iss := s.iss
	cfg.ISS = &iss
	c.rebuild(cfg)

	// Congestion control: rebuild already ran cfg.CC.Init. A matching
	// algorithm gets its learned model and control block back; a
	// hot-swapped one keeps the fresh Init window and relearns, with
	// only the recovery flag carried over (the connection-level
	// recovery state machine is algorithm-independent).
	fresh := c.ctrl
	c.tcb = s.tcb
	if !tcpcc.Load(c.cc, s.CCState) || s.CC != c.cc.Name() {
		c.ctrl = fresh
	}
	c.ctrl.InRecovery = c.inRecovery

	c.sndBuf.Write(s.SendBuf)
	c.rcvBuf.Write(s.RecvBuf)
	for _, o := range s.OOO {
		o.data = framepool.Clone(o.data)
		c.ooo = append(c.ooo, o)
		c.oooBytes += len(o.data)
	}
	for _, m := range s.Inflight {
		m.sacked = m.sacked && m.length > 0 // as sack(): a bare FIN is never SACK-covered
		c.inflight.push(m)
	}

	// The connection established long ago; the callback must not
	// re-fire on the new stack.
	if c.state != StateSynSent && c.state != StateSynRcvd {
		c.onEstablishedFired = true
	}

	// Re-arm timers whose cause survived the handoff.
	switch {
	case c.state == StateTimeWait:
		d := c.timeWaitDeadline.Sub(cfg.Clock.Now())
		if d <= 0 {
			d = time.Millisecond // expire promptly, but on the loop
		}
		c.armTimeWait(d)
	case c.sndUna != c.sndNxt || c.state == StateSynSent || c.state == StateSynRcvd:
		c.armRTO()
	}
	if c.unackedSegs > 0 && c.state != StateTimeWait {
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
