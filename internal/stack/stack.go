// Package stack assembles the protocol layers into a host network
// stack: interfaces with ARP resolution, IPv4 input/output without
// fragmentation, and TCP connections with pluggable congestion control.
// A packet of any other protocol is counted as dropped.
//
// A Stack instance is exactly what a Network Stack Module hosts (the
// paper ports Linux 4.9's stack into its NSMs, §4.1) and also what the
// legacy baseline runs inside the guest (Figure 2a). Packet processing
// can be charged to a netsim.CPU to model per-core capacity, which is
// what bounds single-flow throughput in Figure 4.
package stack

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"netkernel/internal/framepool"
	"netkernel/internal/netsim"
	"netkernel/internal/proto/arp"
	"netkernel/internal/proto/ethernet"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/sim"
	"netkernel/internal/telemetry"
	"netkernel/internal/vswitch"
)

// Config parameterizes a stack.
type Config struct {
	Clock sim.Clock
	RNG   *sim.RNG
	// Name labels the stack in stats and errors.
	Name string

	// CPU, when set, charges PerPacketCost of core time per packet in
	// each direction. This is the per-core processing model behind
	// Figure 4's single-flow cap. An unsharded stack pins each new flow
	// to the least-recently-assigned core, so up to Cores() concurrent
	// flows never share one (manual pinning, as the paper's testbed
	// does); it steers to at most 256 cores.
	CPU           *netsim.CPU
	PerPacketCost time.Duration
	// RxShards, when > 0, runs the stack in sharded (multi-queue NSM)
	// mode: the TCP connection table is split into RxShards shards
	// keyed by the canonical vswitch 4-tuple hash, and each frame is
	// dispatched to CPU core == its flow's shard, so shard i's
	// connection state is only ever touched from core i. RxShards=1
	// models a single-queue NSM (every flow on core 0); 0 keeps one
	// table with round-robin core pinning.
	RxShards int

	// DefaultCC names the congestion control used when a dial or
	// listen does not specify one. Default "cubic" (the Linux default).
	DefaultCC string

	// TCP knobs passed through to connections.
	MinRTO      time.Duration
	MSL         time.Duration
	SendBufSize int
	RecvBufSize int

	// Metrics, when set, publishes every stack counter into the host
	// telemetry registry under the scope's prefix (e.g.
	// "nsm2.stack.frames_in"). The counters exist and update either
	// way; the scope only names them.
	Metrics *telemetry.Scope
}

func (c *Config) fillDefaults() {
	if c.DefaultCC == "" {
		c.DefaultCC = "cubic"
	}
}

// Stats is the stack's live counter set, published under each field's
// metric tag. The frame path runs on netsim CPU cores while
// management-plane callers (VM.CopyReport, Snapshot) may read from
// another goroutine, so every field is an atomic telemetry.Counter.
type Stats struct {
	FramesIn         telemetry.Counter `metric:"frames_in"`
	FramesOut        telemetry.Counter `metric:"frames_out"`
	IPIn             telemetry.Counter `metric:"ip_in"`
	IPOut            telemetry.Counter `metric:"ip_out"`
	TCPSegsIn        telemetry.Counter `metric:"tcp_segs_in"`
	DroppedNoRoute   telemetry.Counter `metric:"dropped_no_route"`
	DroppedBadPacket telemetry.Counter `metric:"dropped_bad_packet"`
	DroppedNoSocket  telemetry.Counter `metric:"dropped_no_socket"`
	DroppedDead      telemetry.Counter `metric:"dropped_dead"` // frames arriving after Kill
	ARPRequests      telemetry.Counter `metric:"arp_requests"`
	ARPReply         telemetry.Counter `metric:"arp_replies"`
	// TCPCopiedTx and TCPCopiedRx aggregate the TCP layer's payload
	// memcpy counters across every connection this stack has hosted,
	// including ones already torn down (the per-conn Stats die with the
	// conn; the copy-budget accounting needs the cumulative view).
	TCPCopiedTx telemetry.Counter `metric:"tcp_copied_tx"`
	TCPCopiedRx telemetry.Counter `metric:"tcp_copied_rx"`
	// TCPRetransmits aggregates every hosted connection's retransmitted
	// segments (RTO and fast retransmit), cumulatively like the copy
	// ledger.
	TCPRetransmits telemetry.Counter `metric:"tcp_retransmits"`
	// FrameCopiedTx counts transport payload bytes copied into a frame
	// buffer — the one copy between the transport's send buffer and the
	// wire (DESIGN.md §15). It extends the copy ledger below TCP; there is
	// no receive-side twin because the receive path below TCP copies
	// nothing. Read it here: it is deliberately not published in the
	// telemetry registry, whose name set the benchmark's model digest
	// hashes.
	FrameCopiedTx telemetry.Counter
}

// Stack is one host's network stack.
type Stack struct {
	cfg   Config
	iface *Iface // single-homed: one interface per stack instance

	arpCache *arp.Cache

	// connShards is the TCP connection table, split by flow shard
	// (one entry in legacy mode). The datapath mutates a shard only
	// from its own core's dispatch queue; the mutex exists for
	// management-plane readers (ConnCount, Conns) on other goroutines.
	connShards []connShard
	listeners  map[uint16]*listenEntry

	ipID     uint16
	nextPort uint16
	gateway  ipv4.Addr
	maskBits int
	stats    Stats

	// flowCore is the round-robin assignment table: every flow hash
	// ever seen keeps the core it first drew, a byte in a compact table
	// (New refuses a CPU of more than 256 cores).
	flowCore coreTable
	nextCore int32
	// dead marks a killed stack (its host NSM crashed): arriving frames
	// are dropped, nothing is ever transmitted again.
	dead bool
	// timeWait is where every connection's TIME_WAIT timer waits: all
	// wait 2·cfg.MSL, so they expire in the order they were armed and
	// share one event-loop entry.
	timeWait sim.Lane
	// free holds the connection objects handed back with ReleaseConn,
	// rebuilt last in, first out.
	free []*tcpSock
	// inInput is the connection whose Input is running, if any.
	inInput *tcp.Conn
}

type listenEntry struct {
	listener *tcp.Listener
	opts     SocketOptions
	// handshaking counts passive connections still in SYN-RCVD; they
	// occupy backlog slots so a SYN flood cannot conjure unbounded
	// connection state.
	handshaking int
}

type fourTuple struct {
	localIP    ipv4.Addr
	localPort  uint16
	remoteIP   ipv4.Addr
	remotePort uint16
}

// connShard is one shard of the TCP connection table.
type connShard struct {
	mu    sync.RWMutex
	conns map[fourTuple]*tcp.Conn
}

// shardFor maps a connection key to its table shard — the same
// canonical hash the frame dispatcher uses, so a flow's segments and
// its connection state always meet on one shard/core.
func (s *Stack) shardFor(key fourTuple) *connShard {
	if len(s.connShards) == 1 {
		return &s.connShards[0]
	}
	h := vswitch.TupleHash(key.localIP, key.localPort, key.remoteIP, key.remotePort)
	return &s.connShards[vswitch.ShardOf(h, len(s.connShards))]
}

func (s *Stack) getConn(key fourTuple) (*tcp.Conn, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	c, ok := sh.conns[key]
	sh.mu.RUnlock()
	return c, ok
}

func (s *Stack) putConn(key fourTuple, c *tcp.Conn) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.conns[key] = c
	sh.mu.Unlock()
}

func (s *Stack) delConn(key fourTuple) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	delete(sh.conns, key)
	sh.mu.Unlock()
}

// New builds a stack.
func New(cfg Config) *Stack {
	cfg.fillDefaults()
	if cfg.Clock == nil {
		panic("stack: Config.Clock required")
	}
	if cfg.RNG == nil {
		cfg.RNG = sim.NewRNG(0x5eed)
	}
	if cfg.CPU != nil && cfg.CPU.Cores() > maxSteeredCores {
		panic(fmt.Sprintf("stack: round-robin pinning steers to at most %d cores, CPU has %d", maxSteeredCores, cfg.CPU.Cores()))
	}
	nshards := cfg.RxShards
	if nshards < 1 {
		nshards = 1
	}
	s := &Stack{
		cfg:        cfg,
		arpCache:   arp.NewCache(cfg.Clock, 0),
		connShards: make([]connShard, nshards),
		listeners:  make(map[uint16]*listenEntry),
		nextPort:   49152,
	}
	for i := range s.connShards {
		s.connShards[i].conns = make(map[fourTuple]*tcp.Conn)
	}
	s.timeWait.Init(cfg.Clock)
	s.arpCache.Request = s.sendARPRequest
	cfg.Metrics.Publish(&s.stats)
	if cfg.Metrics != nil && cfg.RxShards > 0 {
		// Per-shard live-connection gauges (DESIGN.md §10 naming:
		// <scope>.s<i>.conns), so steering skew is observable.
		for i := range s.connShards {
			sh := &s.connShards[i]
			cfg.Metrics.GaugeFunc(fmt.Sprintf("s%d.conns", i), func() int64 {
				sh.mu.RLock()
				n := len(sh.conns)
				sh.mu.RUnlock()
				return int64(n)
			})
		}
	}
	return s
}

// Iface is the stack's network interface.
type Iface struct {
	stack *Stack
	MAC   ethernet.MAC
	IP    ipv4.Addr
	MTU   int
	tx    func(frame []byte)
}

// AttachInterface configures the stack's interface: its addresses, MTU,
// the netmask length of the local subnet, the default gateway (zero for
// none), and the transmit function (a netsim NIC or switch port).
func (s *Stack) AttachInterface(mac ethernet.MAC, ip ipv4.Addr, mtu, maskBits int, gw ipv4.Addr, tx func(frame []byte)) *Iface {
	if mtu <= 0 {
		mtu = ethernet.MTU
	}
	s.iface = &Iface{stack: s, MAC: mac, IP: ip, MTU: mtu, tx: tx}
	s.maskBits = maskBits
	s.gateway = gw
	return s.iface
}

// Interface returns the attached interface (nil before AttachInterface).
func (s *Stack) Interface() *Iface { return s.iface }

// Stats returns a copy of the stack counters, read atomically — safe
// to call from any goroutine while the data path runs.
func (s *Stack) Stats() Stats { return telemetry.Load(&s.stats) }

// Name returns the stack's label.
func (s *Stack) Name() string { return s.cfg.Name }

// Clock returns the stack's clock.
func (s *Stack) Clock() sim.Clock { return s.cfg.Clock }

// MSS returns the TCP maximum segment size for the attached interface.
func (s *Stack) MSS() int {
	return s.iface.MTU - ipv4.HeaderLen - tcp.MinHeaderLen
}

// SetDefaultCC changes the congestion control used when sockets do not
// name one — e.g. a Linux guest switching its kernel default to BBR
// via sysctl. Existing connections are unaffected.
func (s *Stack) SetDefaultCC(name string) { s.cfg.DefaultCC = name }

// DefaultCC returns the stack's default congestion control.
func (s *Stack) DefaultCC() string { return s.cfg.DefaultCC }

func sameSubnet(a, b ipv4.Addr, bits int) bool {
	if bits <= 0 {
		return true
	}
	if bits > 32 {
		bits = 32
	}
	au := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	bu := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	mask := ^uint32(0) << (32 - bits)
	return au&mask == bu&mask
}

// ErrNoRoute reports a destination neither on-link nor reachable through
// a gateway.
var ErrNoRoute = errors.New("no route")

// nextHop picks the neighbor to ARP for: the destination itself when
// on-link, else the default gateway.
func (s *Stack) nextHop(dst ipv4.Addr) (ipv4.Addr, error) {
	if sameSubnet(dst, s.iface.IP, s.maskBits) {
		return dst, nil
	}
	if s.gateway.IsZero() {
		return ipv4.Addr{}, fmt.Errorf("stack %s: %w to %v", s.cfg.Name, ErrNoRoute, dst)
	}
	return s.gateway, nil
}

// l4Offset is where a transport builds its segment in a frame: behind
// the room the IPv4 and Ethernet headers are written into afterwards.
const l4Offset = ethernet.HeaderLen + ipv4.HeaderLen

// ttl is the IPv4 time-to-live of every packet the stack sends (64, the
// Linux default).
const ttl = 64

// DeliverFrame is the interface's receive entry point; wire it to the
// NIC or switch port handler. Processing is charged to the configured CPU.
//
// DeliverFrame consumes the frame: once the stack has processed it the
// buffer goes back to the frame pool, so the caller must neither touch
// the slice again nor deliver it anywhere else. Everything the protocol
// layers keep (TCP receive and reorder buffers) is copied out first.
func (s *Stack) DeliverFrame(frame []byte) {
	s.stats.FramesIn.Inc()
	if s.dead {
		s.stats.DroppedDead.Inc()
		framepool.Put(frame)
		return
	}
	if s.cfg.CPU == nil || s.cfg.PerPacketCost <= 0 {
		s.processFrame(frame)
		framepool.Put(frame)
		return
	}
	s.cfg.CPU.DispatchFrame(s.frameCore(frame), s.cfg.PerPacketCost, (*rxDone)(s), frame, 0)
}

// rxDone and txDone are the Stack as the handler of a frame whose CPU
// charge has completed, one per direction, so charging a frame builds no
// closure. Both re-check dead: Kill may have run while the frame sat in
// the core's queue, and a crashed stack neither processes nor transmits.
type (
	rxDone Stack
	txDone Stack
)

func (s *rxDone) HandleFrame(frame []byte, _ uint64) {
	if s.dead {
		s.stats.DroppedDead.Inc()
	} else {
		(*Stack)(s).processFrame(frame)
	}
	framepool.Put(frame)
}

func (s *txDone) HandleFrame(frame []byte, _ uint64) {
	if s.dead {
		framepool.Put(frame)
		return
	}
	s.iface.tx(frame)
}

// frameCore picks the CPU core charged for a frame: the flow's shard
// in sharded mode (core i owns shard i), else the core its flow is
// pinned to.
func (s *Stack) frameCore(frame []byte) int {
	if s.cfg.RxShards > 0 {
		return vswitch.FrameShard(frame, s.cfg.RxShards)
	}
	return s.coreFor(rssHash(frame))
}

// coreFor maps a flow hash to its core through the round-robin
// assignment table (manual pinning). It runs only for a frame charged to
// cfg.CPU.
func (s *Stack) coreFor(hash uint32) int {
	if core, ok := s.flowCore.get(hash); ok {
		return int(core)
	}
	core := s.nextCore
	s.nextCore++
	if int(s.nextCore) >= s.cfg.CPU.Cores() {
		s.nextCore = 0
	}
	s.flowCore.put(hash, uint8(core))
	return int(core)
}

// rssHash keys a frame's flow by hashing its flow fields, like NIC
// receive-side scaling: all segments of one flow share a core.
func rssHash(frame []byte) uint32 {
	// IPv4 src/dst live at 26..34, ports at 34..38 of an Ethernet frame.
	var h uint32 = 2166136261
	end := 38
	if end > len(frame) {
		end = len(frame)
	}
	for _, b := range frame[26:end] {
		h = (h ^ uint32(b)) * 16777619
	}
	return h
}

func (s *Stack) processFrame(frame []byte) {
	eh, payload, err := ethernet.Parse(frame)
	if err != nil {
		s.stats.DroppedBadPacket.Inc()
		return
	}
	if eh.Dst != s.iface.MAC && !eh.Dst.IsBroadcast() {
		return // not ours (promiscuous fabric)
	}
	switch eh.Type {
	case ethernet.TypeARP:
		s.processARP(payload)
	case ethernet.TypeIPv4:
		s.processIPv4(payload)
	default:
		s.stats.DroppedBadPacket.Inc()
	}
}

func (s *Stack) processARP(pkt []byte) {
	p, err := arp.Parse(pkt)
	if err != nil {
		s.stats.DroppedBadPacket.Inc()
		return
	}
	// Opportunistic learning.
	s.arpCache.Learn(p.SenderIP, p.SenderMAC)
	if p.Op == arp.OpRequest && p.TargetIP == s.iface.IP {
		s.stats.ARPReply.Inc()
		s.sendARP(p.SenderMAC, &arp.Packet{
			Op:        arp.OpReply,
			SenderMAC: s.iface.MAC,
			SenderIP:  s.iface.IP,
			TargetMAC: p.SenderMAC,
			TargetIP:  p.SenderIP,
		})
	}
}

func (s *Stack) sendARP(dst ethernet.MAC, p *arp.Packet) {
	frame := framepool.Get(ethernet.HeaderLen + arp.PacketLen)
	p.Marshal(frame[ethernet.HeaderLen:])
	s.sendEthernet(dst, ethernet.TypeARP, frame)
}

func (s *Stack) processIPv4(pkt []byte) {
	h, payload, err := ipv4.Parse(pkt)
	if err != nil {
		s.stats.DroppedBadPacket.Inc()
		return
	}
	if h.Dst != s.iface.IP {
		return // we are a host, not a router
	}
	s.stats.IPIn.Inc()
	if h.Flags&ipv4.FlagMoreFrags != 0 || h.FragOff != 0 {
		// The stack never fragments, and a fragment is not reassembled:
		// nothing of it is kept.
		s.stats.DroppedBadPacket.Inc()
		return
	}
	if h.Proto != ipv4.ProtoTCP {
		s.stats.DroppedNoSocket.Inc()
		return
	}
	s.processTCP(h.Src, payload, h.ECN() == ipv4.ECNCE)
}

// sendEthernet writes the Ethernet header into the first bytes of a
// frame whose payload is already in place behind it, and transmits the
// frame to a resolved MAC. It owns the frame from here on.
func (s *Stack) sendEthernet(dst ethernet.MAC, typ ethernet.EtherType, frame []byte) {
	if s.dead {
		framepool.Put(frame)
		return // a crashed stack transmits nothing
	}
	eh := ethernet.Header{Dst: dst, Src: s.iface.MAC, Type: typ}
	eh.Marshal(frame)
	s.stats.FramesOut.Inc()
	if s.cfg.CPU != nil && s.cfg.PerPacketCost > 0 {
		s.cfg.CPU.DispatchFrame(s.frameCore(frame), s.cfg.PerPacketCost, (*txDone)(s), frame, 0)
		return
	}
	s.iface.tx(frame)
}

// sendIPv4 routes, resolves and transmits one IP datagram. The caller
// has built the datagram's payload at frame[l4Offset:] of a pool frame
// (framepool.Get); sendIPv4 writes the IPv4 and Ethernet headers in front
// of it and owns the frame from here on. A datagram that exceeds the MTU
// is refused, not fragmented; packets awaiting ARP resolution are sent
// when it completes.
func (s *Stack) sendIPv4(dst ipv4.Addr, proto uint8, tos uint8, frame []byte) error {
	hop, err := s.nextHop(dst)
	if err != nil {
		s.stats.DroppedNoRoute.Inc()
		framepool.Put(frame)
		return err
	}
	if n := len(frame) - ethernet.HeaderLen; n > s.iface.MTU {
		framepool.Put(frame)
		return fmt.Errorf("stack %s: datagram of %d bytes exceeds the %d-byte MTU", s.cfg.Name, n, s.iface.MTU)
	}
	s.ipID++
	h := ipv4.Header{
		TOS:   tos,
		ID:    s.ipID,
		TTL:   ttl,
		Proto: proto,
		Src:   s.iface.IP,
		Dst:   dst,
	}
	h.TotalLen = uint16(len(frame) - ethernet.HeaderLen)
	h.Marshal(frame[ethernet.HeaderLen:])
	s.stats.IPOut.Inc()
	s.sendFrame(hop, frame)
	return nil
}

// sendFrame transmits a built IPv4 frame to hop: at once if its MAC is
// cached, else when ARP resolution completes, asking for it if nobody
// has yet. A frame whose resolution is abandoned — the retries ran out,
// or the stack was killed — goes back to the pool.
func (s *Stack) sendFrame(hop ipv4.Addr, frame []byte) {
	if mac, ok := s.arpCache.Lookup(hop); ok {
		s.sendEthernet(mac, ethernet.TypeIPv4, frame)
		return
	}
	// The closure exists on an ARP miss only.
	first := s.arpCache.Await(hop, func(mac ethernet.MAC, ok bool) {
		if ok {
			s.sendEthernet(mac, ethernet.TypeIPv4, frame)
		} else {
			framepool.Put(frame)
		}
	})
	if first {
		s.sendARPRequest(hop)
	}
}

func (s *Stack) sendARPRequest(target ipv4.Addr) {
	s.stats.ARPRequests.Inc()
	s.sendARP(ethernet.Broadcast, &arp.Packet{
		Op:        arp.OpRequest,
		SenderMAC: s.iface.MAC,
		SenderIP:  s.iface.IP,
		TargetIP:  target,
	})
}

// Kill models the stack's host process crashing: every connection is
// torn down silently (no FIN, no RST — a dead process transmits
// nothing), listeners vanish, ARP resolution timers stop, and any frame
// still in flight toward the stack is dropped on arrival. Peers learn of
// the crash through their own retransmission timers or from the
// successor stack's RSTs.
func (s *Stack) Kill() {
	if s.dead {
		return
	}
	s.dead = true
	err := fmt.Errorf("stack %s: killed", s.cfg.Name)
	s.eachConn(func(c *tcp.Conn) { c.Kill(err) })
	for i := range s.connShards {
		sh := &s.connShards[i]
		sh.mu.Lock()
		sh.conns = make(map[fourTuple]*tcp.Conn)
		sh.mu.Unlock()
	}
	s.listeners = make(map[uint16]*listenEntry)
	s.arpCache.Reset()
}

// eachConn calls fn on every connection, in global tuple order whatever
// shard a flow lives on, so a kill or a migration replays from the
// seed. The keys are collected first: fn may end the connection, whose
// owner hook deletes it from the table.
func (s *Stack) eachConn(fn func(c *tcp.Conn)) {
	var keys []fourTuple
	for i := range s.connShards {
		sh := &s.connShards[i]
		sh.mu.RLock()
		for k := range sh.conns {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(keys, func(i, j int) bool { return lessTuple(keys[i], keys[j]) })
	for _, k := range keys {
		if c, ok := s.getConn(k); ok && c != nil {
			fn(c)
		}
	}
}

// Dead reports whether Kill has been called.
func (s *Stack) Dead() bool { return s.dead }

func lessTuple(a, b fourTuple) bool {
	if a.localIP != b.localIP {
		return ipLess(a.localIP, b.localIP)
	}
	if a.localPort != b.localPort {
		return a.localPort < b.localPort
	}
	if a.remoteIP != b.remoteIP {
		return ipLess(a.remoteIP, b.remoteIP)
	}
	return a.remotePort < b.remotePort
}

func ipLess(a, b ipv4.Addr) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// ccName resolves a socket's congestion-control name, falling back to
// the stack default.
func (s *Stack) ccName(name string) string {
	if name == "" {
		return s.cfg.DefaultCC
	}
	return name
}
