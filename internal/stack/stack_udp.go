package stack

import (
	"fmt"

	"netkernel/internal/framepool"
	"netkernel/internal/proto/icmp"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/udp"
)

// UDPSocket is a bound UDP port.
type UDPSocket struct {
	stack *Stack
	port  uint16
	// OnDatagram receives inbound datagrams. data aliases the received
	// frame, which returns to the frame pool as soon as the handler
	// returns: a handler that keeps the datagram must copy it.
	OnDatagram func(src ipv4.Addr, srcPort uint16, data []byte)
	closed     bool
}

// OpenUDP binds a UDP port (0 picks an ephemeral one) with the given
// receive handler.
func (s *Stack) OpenUDP(port uint16, handler func(src ipv4.Addr, srcPort uint16, data []byte)) (*UDPSocket, error) {
	if s.iface == nil {
		return nil, fmt.Errorf("stack %s: no interface attached", s.cfg.Name)
	}
	if port == 0 {
		for i := 0; i < 16384; i++ {
			p := s.nextPort
			s.nextPort++
			if s.nextPort == 0 {
				s.nextPort = 49152
			}
			if _, used := s.udpSocks[p]; !used && p >= 49152 {
				port = p
				break
			}
		}
		if port == 0 {
			return nil, fmt.Errorf("stack %s: UDP ports exhausted", s.cfg.Name)
		}
	} else if _, used := s.udpSocks[port]; used {
		return nil, fmt.Errorf("stack %s: UDP port %d in use", s.cfg.Name, port)
	}
	u := &UDPSocket{stack: s, port: port, OnDatagram: handler}
	s.udpSocks[port] = u
	return u, nil
}

// Port returns the bound port.
func (u *UDPSocket) Port() uint16 { return u.port }

// SendTo transmits one datagram.
func (u *UDPSocket) SendTo(dst ipv4.Addr, dstPort uint16, payload []byte) error {
	if u.closed {
		return fmt.Errorf("stack %s: send on closed UDP socket", u.stack.cfg.Name)
	}
	s := u.stack
	h := udp.Header{SrcPort: u.port, DstPort: dstPort}
	frame := framepool.Get(l4Offset + udp.HeaderLen + len(payload))
	h.MarshalInto(s.iface.IP, dst, frame[l4Offset:], payload)
	s.stats.frameCopiedTx.Add(uint64(len(payload)))
	return s.sendIPv4(dst, ipv4.ProtoUDP, 0, frame)
}

// Close unbinds the socket.
func (u *UDPSocket) Close() {
	if !u.closed {
		u.closed = true
		delete(u.stack.udpSocks, u.port)
	}
}

func (s *Stack) processUDP(src ipv4.Addr, dg []byte) {
	h, payload, err := udp.Parse(src, s.iface.IP, dg)
	if err != nil {
		s.stats.droppedBadPacket.Inc()
		return
	}
	s.stats.udpIn.Inc()
	sock, ok := s.udpSocks[h.DstPort]
	if !ok {
		s.stats.droppedNoSocket.Inc()
		// RFC 1122: signal port unreachable.
		_ = s.sendICMP(src, icmp.DestUnreachable(icmp.CodePortUnreachable, dg))
		return
	}
	if sock.OnDatagram != nil {
		sock.OnDatagram(src, h.SrcPort, payload)
	}
}
