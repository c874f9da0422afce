package stack

import (
	"errors"
	"fmt"

	"netkernel/internal/framepool"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/tcpcc"
)

// SocketOptions shape a TCP socket created through the stack.
type SocketOptions struct {
	// CC names the congestion control ("" = stack default).
	CC string

	// Callbacks, delivered on the stack's clock executor.
	OnEstablished func(err error)
	OnReadable    func()
	OnWritable    func()
	OnClose       func(err error)
}

// ErrPortInUse reports a listen on a port that already has a listener.
var ErrPortInUse = errors.New("already listening")

// ErrPortsExhausted reports a dial that found no free ephemeral port.
var ErrPortsExhausted = errors.New("ephemeral ports exhausted")

// Dial opens an active TCP connection to remote. A remote with no route
// fails at once with ErrNoRoute, as connect(2) fails with ENETUNREACH.
func (s *Stack) Dial(remote tcp.AddrPort, opts SocketOptions) (*tcp.Conn, error) {
	if s.iface == nil {
		return nil, fmt.Errorf("stack %s: no interface attached", s.cfg.Name)
	}
	if _, err := s.nextHop(remote.Addr); err != nil {
		return nil, err
	}
	k, cc, err := s.takeSock(s.ccName(opts.CC))
	if err != nil {
		return nil, err
	}
	port, iss, err := s.allocPort(remote)
	if err != nil {
		s.recycle(k)
		return nil, err
	}
	local := tcp.AddrPort{Addr: s.iface.IP, Port: port}
	cfg := s.connConfig(k, local, remote, cc, opts)
	cfg.ISS = iss
	k.conn.Dial(cfg)
	s.install(k)
	return &k.conn, nil
}

// Listen opens a TCP listener on port. Accepted connections inherit
// opts (congestion control, buffers); per-connection callbacks are
// attached after Accept with Conn.SetCallbacks.
func (s *Stack) Listen(port uint16, backlog int, opts SocketOptions) (*tcp.Listener, error) {
	if s.iface == nil {
		return nil, fmt.Errorf("stack %s: no interface attached", s.cfg.Name)
	}
	if s.dead {
		return nil, fmt.Errorf("stack %s: killed", s.cfg.Name)
	}
	if _, used := s.listeners[port]; used {
		return nil, fmt.Errorf("stack %s: port %d %w", s.cfg.Name, port, ErrPortInUse)
	}
	l := tcp.NewListener(tcp.AddrPort{Addr: s.iface.IP, Port: port}, backlog)
	s.listeners[port] = &listenEntry{listener: l, opts: opts}
	return l, nil
}

// CloseListener stops accepting on port.
func (s *Stack) CloseListener(port uint16) { delete(s.listeners, port) }

// ConnCount returns the number of live TCP connections (monitoring).
// Safe to call from any goroutine while the data path runs.
func (s *Stack) ConnCount() int {
	n := 0
	for i := range s.connShards {
		sh := &s.connShards[i]
		sh.mu.RLock()
		n += len(sh.conns)
		sh.mu.RUnlock()
	}
	return n
}

// ShardConnCount returns shard i's live TCP connections (monitoring;
// 0 for out-of-range shards).
func (s *Stack) ShardConnCount(i int) int {
	if i < 0 || i >= len(s.connShards) {
		return 0
	}
	sh := &s.connShards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return len(sh.conns)
}

// RxShards returns the configured shard count (0 = legacy mode).
func (s *Stack) RxShards() int { return s.cfg.RxShards }

// Conns invokes fn for every live connection (monitoring/accounting).
func (s *Stack) Conns(fn func(c *tcp.Conn)) {
	for i := range s.connShards {
		sh := &s.connShards[i]
		sh.mu.RLock()
		conns := make([]*tcp.Conn, 0, len(sh.conns))
		for _, c := range sh.conns {
			conns = append(conns, c)
		}
		sh.mu.RUnlock()
		for _, c := range conns {
			fn(c)
		}
	}
}

func (s *Stack) connConfig(k *tcpSock, local, remote tcp.AddrPort, ccAlg tcpcc.Algorithm, opts SocketOptions) tcp.Config {
	return tcp.Config{
		Clock:         s.cfg.Clock,
		RNG:           s.cfg.RNG,
		Local:         local,
		Remote:        remote,
		MSS:           s.MSS(),
		SendBufSize:   s.cfg.SendBufSize,
		RecvBufSize:   s.cfg.RecvBufSize,
		CC:            ccAlg,
		MinRTO:        s.cfg.MinRTO,
		MSL:           s.cfg.MSL,
		TimeWaitLane:  &s.timeWait,
		Output:        k.output,
		OnEstablished: opts.OnEstablished,
		OnReadable:    opts.OnReadable,
		OnWritable:    opts.OnWritable,
		OnClose:       opts.OnClose,
		CopiedTx:      &s.stats.TCPCopiedTx,
		CopiedRx:      &s.stats.TCPCopiedRx,
		Retrans:       &s.stats.TCPRetransmits,
	}
}

// tcpSock is the stack's side of one connection object: the Conn and
// the callbacks the stack binds into it. The callbacks are method values
// made once, when the object is; each call reads the incarnation the
// Conn holds now, so an object recycled through the free list
// (ReleaseConn) never builds them again. That is safe because a Conn
// calls back nothing after it ends.
type tcpSock struct {
	conn tcp.Conn
	s    *Stack
	// le is the listener a passive connection still in its handshake
	// deposits into once established.
	le *listenEntry
	// free marks an object on the stack's free list.
	free bool

	output        tcp.OutputFunc // transmit
	onEstablished func(error)    // handshakeDone
}

// takeSock returns an object for a new connection running congestion
// control ccName: the most recently released one, else a new one. A
// reused object's congestion-control instance serves again when the
// algorithm matches (the connection re-Inits it).
func (s *Stack) takeSock(ccName string) (*tcpSock, tcpcc.Algorithm, error) {
	var k *tcpSock
	top := len(s.free) - 1
	i := top
	// A connection released from inside its own Input — from the OnClose
	// of the segment that ended it — waits until that Input returns.
	if i >= 0 && &s.free[i].conn == s.inInput {
		i--
	}
	if i >= 0 {
		k = s.free[i]
		s.free[i] = s.free[top]
		s.free[top] = nil
		s.free = s.free[:top]
		k.free = false
		if cc := k.conn.CongestionControl(); cc != nil && cc.Name() == ccName {
			return k, cc, nil
		}
	} else {
		k = &tcpSock{s: s}
		k.output = k.transmit
		k.onEstablished = k.handshakeDone
	}
	cc, err := tcpcc.New(ccName)
	if err != nil {
		s.recycle(k)
		return nil, nil, err
	}
	return k, cc, nil
}

// recycle puts an object on the free list.
func (s *Stack) recycle(k *tcpSock) {
	k.free = true
	s.free = append(s.free, k)
}

// install makes a freshly built connection the stack's: it joins the
// demux table, and its owner hook will take it out again.
func (s *Stack) install(k *tcpSock) {
	k.conn.SetOwner(k)
	s.putConn(keyOf(&k.conn), &k.conn)
}

// ReleaseConn hands back a connection this stack created once its owner
// is done with it: the connection has ended — its OnClose has run, or it
// was detached — and nothing will touch it again. The stack rebuilds the
// object for a later Dial, accept or RestoreConn, so connection churn
// allocates nothing once warm. Releasing is optional, as framepool.Put
// is: a connection never handed back is collected by the GC. A
// connection another stack created is ignored.
func (s *Stack) ReleaseConn(c *tcp.Conn) {
	k, ok := c.Owner().(*tcpSock)
	if !ok || k.s != s {
		return
	}
	if c.State() != tcp.StateClosed || k.free {
		panic("stack: ReleaseConn of a connection that is live or already released")
	}
	s.recycle(k)
}

func keyOf(c *tcp.Conn) fourTuple {
	l, r := c.LocalAddr(), c.RemoteAddr()
	return fourTuple{l.Addr, l.Port, r.Addr, r.Port}
}

func (k *tcpSock) transmit(h *tcp.Header, payload []byte, ecnCapable bool) {
	var tos uint8
	if ecnCapable {
		tos = ipv4.ECNECT0
	}
	k.s.sendTCP(k.conn.LocalAddr().Addr, k.conn.RemoteAddr().Addr, h, payload, tos)
}

// ConnClosed implements tcp.Owner: an ended connection leaves the demux
// table.
func (k *tcpSock) ConnClosed(c *tcp.Conn) { k.s.delConn(keyOf(c)) }

// handshakeDone is a passive connection's OnEstablished: it frees the
// backlog slot the handshake held and, on success, queues the
// connection for Accept.
func (k *tcpSock) handshakeDone(err error) {
	le := k.le
	k.le = nil
	le.handshaking--
	if err == nil {
		le.listener.Deposit(&k.conn)
	}
	if le.opts.OnEstablished != nil {
		le.opts.OnEstablished(err)
	}
}

// sendTCP builds one segment in a pool frame — header marshalled and
// payload copied to where they will sit on the wire, the only copy below
// the connection's send buffer — and sends it.
func (s *Stack) sendTCP(src, dst ipv4.Addr, h *tcp.Header, payload []byte, tos uint8) {
	frame := framepool.Get(l4Offset + h.Len() + len(payload))
	h.MarshalInto(src, dst, frame[l4Offset:], payload)
	s.stats.FrameCopiedTx.Add(uint64(len(payload)))
	// Routing errors surface as drops; TCP's own retransmission handles
	// transient ones.
	_ = s.sendIPv4(dst, ipv4.ProtoTCP, tos, frame)
}

func (s *Stack) processTCP(src ipv4.Addr, seg []byte, ce bool) {
	h, payload, err := tcp.Parse(src, s.iface.IP, seg)
	if err != nil {
		s.stats.DroppedBadPacket.Inc()
		return
	}
	s.stats.TCPSegsIn.Inc()
	key := fourTuple{s.iface.IP, h.DstPort, src, h.SrcPort}
	if conn, ok := s.getConn(key); ok {
		s.inInput = conn
		conn.Input(&h, payload, ce)
		s.inInput = nil
		// TIME_WAIT assassination by a valid new SYN (the peer recycled
		// its port): Input tore the lingering connection down and freed
		// the table slot. Fall through to the listener so the attempt
		// is served now rather than at the peer's SYN retransmission.
		if _, alive := s.getConn(key); alive {
			return
		}
		if h.Flags&tcp.FlagSYN == 0 || h.Flags&tcp.FlagACK != 0 {
			return
		}
	}

	// No connection: a SYN may match a listener.
	if h.Flags&tcp.FlagSYN != 0 && h.Flags&tcp.FlagACK == 0 {
		if le, ok := s.listeners[h.DstPort]; ok {
			if le.listener.Full() || le.listener.Pending()+le.handshaking >= le.listener.MaxBacklog() {
				return // listen-queue overflow: silently drop the SYN
			}
			s.acceptSYN(le, key, &h)
			return
		}
	}
	s.stats.DroppedNoSocket.Inc()
	s.sendRST(src, &h, len(payload))
}

func (s *Stack) acceptSYN(le *listenEntry, key fourTuple, syn *tcp.Header) {
	k, cc, err := s.takeSock(s.ccName(le.opts.CC))
	if err != nil {
		return
	}
	local := tcp.AddrPort{Addr: key.localIP, Port: key.localPort}
	remote := tcp.AddrPort{Addr: key.remoteIP, Port: key.remotePort}
	cfg := s.connConfig(k, local, remote, cc, le.opts)
	le.handshaking++
	k.le = le
	cfg.OnEstablished = k.onEstablished
	ecnReq := syn.Flags&tcp.FlagECE != 0 && syn.Flags&tcp.FlagCWR != 0
	k.conn.Passive(cfg, syn, ecnReq)
	s.install(k)
}

// sendRST answers a stray segment per RFC 793 §3.4.
func (s *Stack) sendRST(src ipv4.Addr, h *tcp.Header, payloadLen int) {
	if h.Flags&tcp.FlagRST != 0 {
		return
	}
	rst := tcp.Header{SrcPort: h.DstPort, DstPort: h.SrcPort}
	if h.Flags&tcp.FlagACK != 0 {
		rst.Flags = tcp.FlagRST
		rst.Seq = h.Ack
	} else {
		rst.Flags = tcp.FlagRST | tcp.FlagACK
		ack := h.Seq + uint32(payloadLen)
		if h.Flags&tcp.FlagSYN != 0 {
			ack++
		}
		if h.Flags&tcp.FlagFIN != 0 {
			ack++
		}
		rst.Ack = ack
	}
	s.sendTCP(s.iface.IP, src, &rst, nil, 0)
}

// recycleISSMargin is how far beyond a TIME_WAIT predecessor's final
// sequence a recycled port pair starts its ISS: comfortably above
// anything the peer's lingering state has seen, with headroom for the
// predecessor's stray retransmissions still in flight.
const recycleISSMargin = 1 << 16

// allocPort picks an ephemeral port not colliding with existing
// connections to the same remote or with listeners. A port
// pair held only by a TIME_WAIT connection is recycled (RFC 6191
// flavour): the lingering connection is discarded and the successor's
// ISS is pinned above its final sequence number, so the peer's own
// TIME_WAIT state validates the new SYN as genuinely new instead of a
// delayed duplicate. The returned ISS override is nil for fresh ports.
func (s *Stack) allocPort(remote tcp.AddrPort) (uint16, *uint32, error) {
	for i := 0; i < 16384; i++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 49152
		}
		if p < 49152 {
			continue
		}
		if _, used := s.listeners[p]; used {
			continue
		}
		key := fourTuple{s.iface.IP, p, remote.Addr, remote.Port}
		if c, used := s.getConn(key); used {
			if c.State() != tcp.StateTimeWait {
				continue
			}
			iss := c.FinalSeq() + recycleISSMargin
			c.Kill(nil) // owner hook clears the table slot
			return p, &iss, nil
		}
		return p, nil, nil
	}
	return 0, nil, fmt.Errorf("stack %s: %w", s.cfg.Name, ErrPortsExhausted)
}
