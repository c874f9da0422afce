package stack

import (
	"fmt"
	"time"

	"netkernel/internal/framepool"
	"netkernel/internal/proto/icmp"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
)

type pingWaiter struct {
	sentAt  sim.Time
	timer   sim.Handle
	cb      func(rtt time.Duration, err error)
	replied bool
}

// Ping sends an ICMP echo request and invokes cb exactly once with the
// round-trip time or a timeout error. It powers the pingmesh-style
// failure detector in internal/mgmt (§5 "management protocols such as
// failure detection and monitoring can be deployed readily as NSMs").
func (s *Stack) Ping(dst ipv4.Addr, payload []byte, timeout time.Duration, cb func(rtt time.Duration, err error)) {
	if s.iface == nil {
		cb(0, fmt.Errorf("stack %s: no interface attached", s.cfg.Name))
		return
	}
	if timeout <= 0 {
		timeout = time.Second
	}
	s.nextPing++
	id := s.nextPing
	seq := uint16(1)
	key := uint32(id)<<16 | uint32(seq)
	w := &pingWaiter{sentAt: s.cfg.Clock.Now(), cb: cb}
	w.timer = s.cfg.Clock.AfterFunc(timeout, func() {
		if !w.replied {
			w.replied = true
			delete(s.pings, key)
			cb(0, fmt.Errorf("stack %s: ping %v timed out", s.cfg.Name, dst))
		}
	})
	s.pings[key] = w
	if err := s.sendICMP(dst, icmp.EchoRequest(id, seq, payload)); err != nil {
		w.timer.Stop()
		w.replied = true
		delete(s.pings, key)
		cb(0, err)
	}
}

// sendICMP marshals a message into a pool frame and sends it. The
// message's body may alias the frame being processed; it is copied here.
func (s *Stack) sendICMP(dst ipv4.Addr, m icmp.Message) error {
	frame := framepool.Get(l4Offset + m.Len())
	m.MarshalInto(frame[l4Offset:])
	return s.sendIPv4(dst, ipv4.ProtoICMP, 0, frame)
}

func (s *Stack) processICMP(src ipv4.Addr, pkt []byte) {
	m, err := icmp.Parse(pkt)
	if err != nil {
		s.stats.droppedBadPacket.Inc()
		return
	}
	s.stats.icmpIn.Inc()
	switch m.Type {
	case icmp.TypeEchoRequest:
		_ = s.sendICMP(src, icmp.EchoReply(m))
	case icmp.TypeEchoReply:
		key := uint32(m.ID)<<16 | uint32(m.Seq)
		if w, ok := s.pings[key]; ok && !w.replied {
			w.replied = true
			w.timer.Stop()
			delete(s.pings, key)
			w.cb(s.cfg.Clock.Now().Sub(w.sentAt), nil)
		}
	case icmp.TypeDestUnreachable, icmp.TypeTimeExceeded:
		// Informational; counted but not currently propagated to
		// sockets (TCP's own timers handle unreachability).
	}
}
