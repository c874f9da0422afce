package tcp

import (
	"time"

	"netkernel/internal/tcpcc"
)

// maxRTO caps exponential backoff.
const maxRTO = 60 * time.Second

// processAck handles the acknowledgment part of an inbound segment.
func (c *Conn) processAck(h *Header) {
	ack := h.Ack
	wnd := int(h.Window) << c.peerWScale

	if seqGT(ack, c.sndMax) {
		// Acks data we never sent: re-synchronize.
		c.sendAck()
		return
	}

	ece := h.Flags&FlagECE != 0
	if ece {
		c.stats.ECNEchoes++
	}

	c.applySACK(h.Opts.SACKBlocks())

	switch {
	case seqGT(ack, c.sndUna):
		c.processNewAck(h, ack, ece)
	case ack == c.sndUna && c.outstanding() > 0:
		// Duplicate ACK. When SACK is negotiated, a genuine loss-signal
		// dupack carries blocks describing the receiver's out-of-order
		// data; a blockless duplicate is the echo of a spuriously
		// retransmitted segment (RFC 2883 territory) and must not
		// trigger recovery.
		if c.sackOK && h.Opts.NumSACK == 0 {
			break
		}
		c.dupAcks++
		c.stats.DupAcks++
		if c.dupAcks == 3 && !c.inRecovery {
			c.enterRecovery()
		}
	}
	// SACK-driven hole repair runs on every ACK: the scoreboard
	// (sacked-above ⇒ lost) gates it, so it is inert on a clean
	// connection, but after an RTO it is what drains a large hole
	// range at ack-clock speed instead of one segment per timeout.
	c.sackRetransmit(2)

	// Window update (plain; the dup-ack path above tolerates counting
	// pure window updates as dups, which only hastens recovery).
	c.sndWnd = wnd
	if wnd > 0 {
		c.persistTimer.Stop()
	}
	if c.wantWrite && c.sndBuf.Free() > 0 && c.cfg.OnWritable != nil {
		c.wantWrite = false
		c.cfg.OnWritable()
	}
}

func (c *Conn) processNewAck(h *Header, ack uint32, ece bool) {
	now := c.cfg.Clock.Now()
	newly := seqDiff(ack, c.sndUna)
	finAcked := c.finSent && ack == c.finSeq+1
	payloadAcked := newly
	if finAcked {
		payloadAcked--
	}
	// A SYN consumes a sequence number too; it never coexists with
	// buffered payload here because establishment precedes Write.
	if payloadAcked > c.sndBuf.Len() {
		payloadAcked = c.sndBuf.Len()
	}

	c.sndUna = ack
	if seqGT(c.sndUna, c.sndNxt) {
		// A late ACK (beyond an RTO rewind) covers data we were about
		// to resend; skip past it.
		c.sndNxt = c.sndUna
	}
	c.sndBuf.Discard(payloadAcked)
	c.stats.BytesAcked += uint64(payloadAcked)
	c.dupAcks = 0
	c.backoff = 0

	rttSeg, haveRTTSeg, newlyDelivered := c.inflight.ackUpTo(ack)
	if newlyDelivered > 0 {
		// Bytes SACKed earlier were already counted delivered; only
		// fresh ones advance the rate-sampling counter here.
		c.delivered += uint64(newlyDelivered)
		c.deliveredAt = now
	}

	// RTT estimation (RFC 6298). Karn's rule skips retransmitted data;
	// recovery is skipped too, because segments that sat behind a hole
	// for the length of the recovery would poison the estimator.
	var rtt time.Duration
	if haveRTTSeg && !rttSeg.retransmitted && !c.inRecovery {
		rtt = now.Sub(rttSeg.sentAt)
		c.updateRTT(rtt)
	}

	// Recovery bookkeeping (NewReno).
	if c.inRecovery {
		if seqGEQ(ack, c.recover) {
			c.inRecovery = false
		} else {
			// Partial ack: the next hole is lost too; retransmit it.
			c.retransmitFront()
		}
	}
	c.ctrl.InRecovery = c.inRecovery

	// ECN reaction for classic (RFC 3168) congestion controls: at most
	// one window reduction per RTT.
	if ece && !c.cc.NeedsECN() && !c.inRecovery {
		if c.ecnReactedAt == 0 || now.Sub(c.ecnReactedAt) > c.srttOr(c.rto) {
			c.ecnReactedAt = now
			c.cc.OnLoss(&c.ctrl, tcpcc.LossFastRetransmit, now.Duration())
		}
	}

	// Deliver the sample to congestion control.
	s := &c.ackSample
	*s = tcpcc.AckSample{
		Underutilized: c.outstanding()+payloadAcked+c.cfg.MSS < c.ctrl.CWnd,
		BytesAcked:    payloadAcked,
		RTT:           rtt,
		SRTT:          c.srtt,
		MinRTT:        c.stats.MinRTT,
		Delivered:     c.delivered,
		InFlight:      c.outstanding(),
		ECE:           ece,
		Now:           now.Duration(),
	}
	if ece {
		s.MarkedBytes = payloadAcked
	}
	if haveRTTSeg {
		s.AppLimited = rttSeg.appLimited
		if !rttSeg.retransmitted {
			// Rate sample over the delivered-counter timeline (BBR's
			// "delivery rate estimation"): the bytes delivered since
			// this segment was sent, over the longer of the send and
			// ack intervals.
			interval := now.Sub(rttSeg.deliveredTimeAtSend)
			if snd := now.Sub(rttSeg.sentAt); snd > interval {
				interval = snd
			}
			if interval > 0 {
				s.DeliveryRate = float64(c.delivered-rttSeg.deliveredAtSend) / interval.Seconds()
				c.stats.DeliveryRate = s.DeliveryRate
			}
		}
	}
	c.cc.OnAck(&c.ctrl, s)

	if c.sndUna == c.sndNxt {
		c.stopRTO()
	} else {
		c.armRTO()
	}

	if finAcked {
		switch c.state {
		case StateFinWait1:
			c.state = StateFinWait2
		case StateClosing:
			c.enterTimeWait()
		case StateLastAck:
			c.teardown(nil)
		}
	}
}

func (c *Conn) srttOr(fallback time.Duration) time.Duration {
	if c.srtt > 0 {
		return c.srtt
	}
	return fallback
}

func (c *Conn) updateRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if c.stats.MinRTT < 0 || rtt < c.stats.MinRTT {
		c.stats.MinRTT = rtt
	}
	if c.srtt == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		d := c.srtt - rtt
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.stats.SRTT = c.srtt
	rto := c.srtt + max4(c.rttvar, time.Millisecond)
	if rto < c.cfg.MinRTO {
		rto = c.cfg.MinRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	c.rto = rto
}

func max4(v, floor time.Duration) time.Duration {
	v *= 4
	if v < floor {
		return floor
	}
	return v
}

// outstanding returns the bytes in flight: sent but neither cumulatively
// acked nor selectively acked.
func (c *Conn) outstanding() int {
	out := seqDiff(c.sndNxt, c.sndUna) - c.inflight.sacked
	if c.finSent {
		out--
	}
	if out < 0 {
		out = 0
	}
	return out
}

// applySACK marks selectively-acknowledged segments so they are
// neither counted in flight nor retransmitted. SACKed bytes count as
// delivered immediately (as Linux's rate sampler does): deferring them
// to the cumulative ack would release recovery windows as one burst
// and wreck delivery-rate estimates.
func (c *Conn) applySACK(blocks []SACKBlock) {
	if len(blocks) == 0 || !c.sackOK {
		return
	}
	for _, b := range blocks {
		if seqGEQ(b.Start, b.End) {
			continue
		}
		if n := c.inflight.sack(b); n > 0 {
			c.delivered += uint64(n)
			c.deliveredAt = c.cfg.Clock.Now()
		}
	}
}

func (c *Conn) enterRecovery() {
	c.inRecovery = true
	c.recover = c.sndNxt
	c.ctrl.InRecovery = true
	c.stats.FastRexmits++
	c.cc.OnLoss(&c.ctrl, tcpcc.LossFastRetransmit, c.cfg.Clock.Now().Duration())
	c.retransmitFront()
}

// retransmitFront resends the first unsacked hole.
func (c *Conn) retransmitFront() {
	for i := 0; i < c.inflight.len(); i++ {
		if s := c.inflight.at(i); !s.sacked {
			c.retransmitSeg(s)
			return
		}
	}
}

// retransmitSeg resends one tracked segment.
func (c *Conn) retransmitSeg(s *segMeta) {
	c.stats.Retransmits++
	if c.cfg.Retrans != nil {
		c.cfg.Retrans.Inc()
	}
	s.retransmitted = true
	s.sentAt = c.cfg.Clock.Now()
	if s.fin && s.length == 0 {
		c.transmit(c.dataHeader(FlagFIN|FlagACK, s.seq), nil, false)
		return
	}
	// Clip to the unacknowledged portion: a partially-accepted segment
	// leaves sndUna in its middle, and resending from s.seq would read
	// below the buffer (and silently dropping it would wedge the flow).
	seq := s.seq
	length := s.length
	if d := seqDiff(c.sndUna, seq); d > 0 {
		seq = c.sndUna
		length -= d
	}
	if length <= 0 {
		return
	}
	off := seqDiff(seq, c.sndUna)
	if off >= c.sndBuf.Len() {
		return // already consumed (stale)
	}
	// A view into the span, not a copy: original segments never straddle
	// a span boundary (trySend clips to the contiguous run), so the view
	// covers the whole clipped range. The Output contract consumes it
	// synchronously.
	payload := c.sndBuf.Contig(off, length)
	if len(payload) == 0 {
		return
	}
	c.transmit(c.dataHeader(FlagACK, seq), payload, c.ecnEnabled)
	// Deliberately no RTO rearm here: resetting the timer on every
	// SACK-driven retransmission lets a steady dupack trickle postpone
	// the RTO forever, wedging recovery when a retransmission is
	// itself lost. The timer armed by the original transmission (or by
	// new-ack processing) stays authoritative.
}

// sackRetransmit resends holes the SACK scoreboard marks lost (RFC
// 6675-flavoured: a segment with at least dupThresh·MSS of SACKed
// data above it is presumed lost), up to budget segments per ACK. It
// lets multi-loss windows on long-RTT paths recover in one round trip
// instead of one hole per RTT.
func (c *Conn) sackRetransmit(budget int) {
	if !c.sackOK || c.inflight.sacked == 0 {
		return // nothing sacked, so nothing is presumed lost
	}
	var hi uint32
	found := false
	for i := 0; i < c.inflight.len(); i++ {
		if s := c.inflight.at(i); s.sacked {
			if end := s.seq + uint32(s.length); !found || seqGT(end, hi) {
				hi = end
				found = true
			}
		}
	}
	lostBelow := hi - uint32(3*c.cfg.MSS) // dupThresh worth of headroom
	// RACK-style re-arming: a hole whose last transmission is older
	// than about one RTT and still unacknowledged was lost again and
	// may be resent. Without this, a lost retransmission leaves its
	// hole unrepairable until an RTO that partial acks keep pushing
	// away.
	reXmitAfter := c.rto
	now := c.cfg.Clock.Now()
	for i := 0; i < c.inflight.len(); i++ {
		if budget == 0 {
			return
		}
		s := c.inflight.at(i)
		if s.sacked {
			continue
		}
		if s.retransmitted && now.Sub(s.sentAt) < reXmitAfter {
			continue
		}
		if seqGEQ(s.seq+uint32(s.length), lostBelow) {
			return // ordered list: nothing further qualifies
		}
		c.retransmitSeg(s)
		budget--
	}
}

// trySend pushes as much data as the windows, pacing, and buffer allow.
func (c *Conn) trySend() {
	if c.closed {
		return
	}
	canSendData := c.state == StateEstablished || c.state == StateCloseWait
	if !canSendData {
		return
	}
	now := c.cfg.Clock.Now()
	for {
		sent := seqDiff(c.sndNxt, c.sndUna)
		if c.finSent {
			sent--
		}
		avail := c.sndBuf.Len() - sent // unsent bytes in the buffer
		if avail < 0 {
			avail = 0
		}
		cwndAvail := c.ctrl.CWnd + c.dupAcks*c.cfg.MSS - c.outstanding()
		wndAvail := c.sndWnd - sent

		if avail == 0 {
			if c.finQueued && !c.finSent {
				c.emitFIN()
			}
			return
		}
		if wndAvail <= 0 {
			c.armPersist()
			return
		}
		n := min(min(c.cfg.MSS, avail), min(cwndAvail, wndAvail))
		if n <= 0 {
			return // congestion-window limited; acks will reopen
		}
		// Nagle (RFC 896): hold small segments while data is in flight.
		if c.nagle && n < c.cfg.MSS && c.outstanding() > 0 && !c.finQueued {
			return
		}
		// Pacing gate.
		if c.ctrl.PacingRate > 0 {
			if c.paceNext > now {
				c.armPacing(c.paceNext.Sub(now))
				return
			}
			gap := time.Duration(float64(n) / c.ctrl.PacingRate * float64(time.Second))
			base := c.paceNext
			if base < now {
				base = now
			}
			c.paceNext = base.Add(gap)
		}

		// Take a zero-copy view of the next contiguous run. It may fall
		// short of n at a span boundary (e.g. the seam between two
		// huge-page chunks); the segment is clipped there so that every
		// tracked segment lies within one span and retransmissions can
		// also be served without copying.
		payload := c.sndBuf.Contig(sent, n)
		got := len(payload)
		if got == 0 {
			return
		}

		h := c.dataHeader(FlagACK, c.sndNxt)
		if got == avail {
			h.Flags |= FlagPSH
		}
		c.inflight.push(segMeta{
			seq:                 c.sndNxt,
			length:              got,
			sentAt:              now,
			deliveredAtSend:     c.delivered,
			deliveredTimeAtSend: c.deliveredAt,
			appLimited:          got == avail && cwndAvail-got > 0,
		})
		c.sndNxt += uint32(got)
		c.sndMax = seqMax(c.sndMax, c.sndNxt)
		c.unackedSegs = 0
		c.delackTimer.Stop()
		c.transmit(h, payload, c.ecnEnabled)
		c.armRTO()
	}
}

// emitFIN sends our FIN and advances the state machine.
func (c *Conn) emitFIN() {
	c.finSent = true
	c.finSeq = c.sndNxt
	h := c.dataHeader(FlagFIN|FlagACK, c.sndNxt)
	c.inflight.push(segMeta{
		seq: c.sndNxt, length: 0, fin: true,
		sentAt: c.cfg.Clock.Now(), deliveredAtSend: c.delivered,
	})
	c.sndNxt++
	c.sndMax = seqMax(c.sndMax, c.sndNxt)
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait1
	case StateCloseWait:
		c.state = StateLastAck
	}
	c.transmit(h, nil, false)
	c.armRTO()
}

// --- timers ---

func (c *Conn) armRTO() { c.rtoTimer.Reset(c.rto) }

func (c *Conn) stopRTO() { c.rtoTimer.Stop() }

func (c *Conn) onRTO() {
	if c.closed {
		return
	}
	c.stats.RTOs++
	c.backoff++
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	if c.backoff > 10 {
		c.teardown(errTimeout{})
		return
	}

	switch c.state {
	case StateSynSent:
		c.sendSYN(false)
		c.armRTO()
		return
	case StateSynRcvd:
		c.sendSYN(true)
		c.armRTO()
		return
	}

	now := c.cfg.Clock.Now().Duration()
	c.cc.OnLoss(&c.ctrl, tcpcc.LossRTO, now)
	c.inRecovery = false
	c.ctrl.InRecovery = false
	c.dupAcks = 0
	c.paceNext = 0

	if c.inflight.len() > 0 {
		// Standard RFC 6298 behaviour: retransmit the earliest
		// outstanding segment and keep the SACK scoreboard. Clearing
		// the retransmitted marks lets SACK-driven recovery resend
		// holes whose earlier retransmission was itself lost.
		for i := 0; i < c.inflight.len(); i++ {
			c.inflight.at(i).retransmitted = false
		}
		c.retransmitFront()
		c.trySend()
		c.armRTO()
		return
	}

	// Nothing tracked (e.g. a lost FIN-only segment): rewind and
	// resend from the cumulative ack.
	c.sndNxt = c.sndUna
	if c.finSent {
		c.finSent = false // FIN will be re-emitted after the data
	}
	c.trySend()
	c.armRTO()
}

type errTimeout struct{}

func (errTimeout) Error() string { return "tcp: connection timed out" }
func (errTimeout) Timeout() bool { return true }

func (c *Conn) armPacing(d time.Duration) {
	if !c.paceTimer.Pending() {
		c.paceTimer.Reset(d)
	}
}

func (c *Conn) onPace() {
	if !c.closed {
		c.trySend()
	}
}

func (c *Conn) armPersist() {
	if c.persistTimer.Pending() || c.outstanding() > 0 {
		return // RTO already guards outstanding data
	}
	c.persistTimer.Reset(c.rto)
}

func (c *Conn) onPersist() {
	if c.closed || c.sndWnd > 0 {
		return
	}
	c.sendWindowProbe()
	c.armPersist()
}

// sendWindowProbe transmits one byte past the closed window without
// advancing sndNxt; the peer's response re-advertises its window.
func (c *Conn) sendWindowProbe() {
	sent := seqDiff(c.sndNxt, c.sndUna)
	if c.finSent {
		sent--
	}
	if c.sndBuf.Len() <= sent {
		return
	}
	var b [1]byte
	if c.sndBuf.Peek(b[:], sent) != 1 {
		return
	}
	c.transmit(c.dataHeader(FlagACK, c.sndNxt), b[:], false)
}
