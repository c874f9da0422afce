// Package servicelib implements the NSM half of NetKernel: the library
// inside a Network Stack Module that executes GuestLib's operations
// against the module's real network stack (§3.1: "Inside the NSM, the
// ServiceLib interfaces with the network stack and GuestLib in the
// tenant VM").
//
// The prototype's two callbacks are preserved by name and role:
// NewDataCallback (nk_new_data_callback) pushes received payloads into
// the huge pages and enqueues new-data nqes; NewAcceptCallback
// (nk_new_accept_callback) harvests accepted connections and emits
// new-connection events (§4.1).
package servicelib

import (
	"errors"
	"time"

	"netkernel/internal/fifo"
	"netkernel/internal/nkchan"
	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/sched"
	"netkernel/internal/shm"
	"netkernel/internal/sim"
	"netkernel/internal/stack"
	"netkernel/internal/telemetry"
	"netkernel/internal/vswitch"
)

// DefaultRecvWindow is a connection's shm receive window when
// Config.RecvWindow is 0.
const DefaultRecvWindow = 1 << 20

// Config parameterizes a ServiceLib.
type Config struct {
	Clock sim.Clock
	NSMID uint32
	Pair  *nkchan.Pair
	// Stack is the network stack this module hosts.
	Stack *stack.Stack
	// CC names the congestion control this NSM offers; it is the NSM's
	// identity ("the CUBIC NSM", "the BBR NSM").
	CC string
	// RecvWindow bounds bytes pushed to the VM but not yet consumed,
	// per connection (default DefaultRecvWindow): the shm-level receive
	// window.
	RecvWindow int
	// Shaper rate-limits this tenant's egress through the module: the
	// §2.1/§5 QoS knob ("providing QoS guarantees" when an NSM serves
	// multiple VMs). Nil means unlimited.
	Shaper sched.Shaper
	// Metrics, when set, publishes the ServiceLib counters into the
	// host telemetry registry (e.g. "vm1.r0.svc.data_in").
	Metrics *telemetry.Scope
	// Tracer, when set and sampling, opens receive-path spans for
	// emitted events and stamps/ends send-path spans arriving in jobs.
	Tracer *telemetry.Tracer
}

const (
	// coalesceDelay batches receive-side data into full huge-page
	// chunks: when less than one chunk has arrived in the middle of a
	// burst, delivery waits up to this long for more. This is the
	// nqe-level analogue of the batched interrupts in §3.2 and keeps the
	// per-event overhead off the bulk datapath. A segment the sender
	// marked PSH ends the burst, and its chunk leaves at once (sinkData);
	// only the buffered path, which runs when the sink refused bytes,
	// waits out the window regardless (DESIGN.md §8).
	coalesceDelay = 5 * time.Microsecond
)

// Stats is a point-in-time copy of the ServiceLib counters.
type Stats struct {
	JobsProcessed uint64
	DataIn        uint64 // bytes VM→NSM (sends)
	DataOut       uint64 // bytes NSM→VM (receives)
	Conns         uint64
	Accepts       uint64
	// TxBytesCopied and RxBytesCopied count payload bytes this layer
	// memcpy'd. On the streaming path Tx stays zero (chunks are handed
	// to the TCP conn as owned spans) and Rx counts exactly one copy
	// per byte: reassembled wire payload → huge-page chunk.
	TxBytesCopied uint64
	RxBytesCopied uint64
}

// counters is the live atomic form of Stats: management-plane readers
// (VM.CopyReport, registry snapshots) may run on another goroutine
// while the module pumps under a wall-clock domain.
type counters struct {
	jobsProcessed, dataIn, dataOut telemetry.Counter
	conns, accepts                 telemetry.Counter
	txBytesCopied, rxBytesCopied   telemetry.Counter
}

func (c *counters) register(m *telemetry.Scope) {
	m.Counter("jobs_processed", &c.jobsProcessed)
	m.Counter("data_in", &c.dataIn)
	m.Counter("data_out", &c.dataOut)
	m.Counter("conns", &c.conns)
	m.Counter("accepts", &c.accepts)
	m.Counter("tx_bytes_copied", &c.txBytesCopied)
	m.Counter("rx_bytes_copied", &c.rxBytesCopied)
}

func (c *counters) snapshot() Stats {
	return Stats{
		JobsProcessed: c.jobsProcessed.Load(),
		DataIn:        c.dataIn.Load(),
		DataOut:       c.dataOut.Load(),
		Conns:         c.conns.Load(),
		Accepts:       c.accepts.Load(),
		TxBytesCopied: c.txBytesCopied.Load(),
		RxBytesCopied: c.rxBytesCopied.Load(),
	}
}

type sendChunk struct {
	chunk shm.Chunk
	size  int
	off   int
	// trace carries the job element's span id so the span can end at
	// the stack hand-off, however long the chunk queues behind the
	// shaper or a full send buffer.
	trace uint32
}

type connState struct {
	svc *ServiceLib
	cid uint32
	// shard is the channel shard this connection is pinned to: every
	// nqe the connection ever emits or receives rides this shard's
	// rings (flow affinity). Dialed connections keep the shard their
	// OpSocket arrived on; accepted connections hash their 4-tuple.
	shard        int
	conn         *tcp.Conn
	sendQ        fifo.Ring[sendChunk]
	closePending bool // the guest closed with sendQ unsent: close once it drains
	recvDebt     int  // bytes at the VM awaiting an OpRecv credit
	eofSent      bool
	shaperWait   bool // a shaper retry is pending
	flushPending bool // a coalescing flush is pending
	// Open receive chunk: the conn's receive sink fills it directly
	// with reassembled payload (the rcvBuf bypass). Its bytes precede
	// anything later buffered in the conn's rcvBuf, so delivery paths
	// must emit it before draining the conn.
	rxChunk shm.Chunk
	rxHave  bool
	rxFill  int

	// opts and sink are the callbacks cs hands its TCP connection:
	// method values bound once, when the struct is built, and kept while
	// it recycles through connPool. Each call reads cs as it is now, which
	// is safe because a connection calls back nothing after its OnClose,
	// and connClosed — what that OnClose runs — is what frees cs. The one
	// exception, a crash, frees cs first, but its stack dies in the same
	// event, before cs can serve another connection: the dying connection
	// calls back into a retired cs, whose cID 0 names nothing.
	opts stack.SocketOptions
	sink func(p []byte, push bool) int

	// kept is the connection's snapshot between a migration's Detach
	// and Attach.
	kept *tcp.ConnSnapshot
}

// The callbacks bound into a connState.

func (cs *connState) established(err error) {
	st := nqe.StatusOK
	if err != nil {
		st = statusFromErr(err)
	}
	cs.svc.emit(cs.shard, nkchan.Receive, &nqe.Element{Op: nqe.OpEstablished, CID: cs.cid, Status: st})
}

func (cs *connState) readable() { cs.svc.NewDataCallback(cs.cid) }

func (cs *connState) writable() { cs.svc.pumpSend(cs) }

func (cs *connState) closed(err error) { cs.svc.connClosed(cs.cid, err) }

func (cs *connState) receive(p []byte, push bool) int { return cs.svc.sinkData(cs, p, push) }

type listenerState struct {
	cid   uint32
	shard int // the listener socket's own shard (its control traffic)
	lst   *tcp.Listener
	// announced counts the OpNewConns emitted for this listener; its
	// OpConnClosed carries the count, so the engine keeps the mapping
	// until every one of them, riding other shards, has been translated.
	announced uint32
}

// The coalescing windows are closure-free loop events: each handler is
// the ServiceLib itself under a named type, and arg says which
// connection (cID) the window belongs to. A window is never stopped; one
// that fires for a connection already gone finds no cID.

// rxFlush ends a connection's receive coalescing window (armRxFlush):
// it emits what arrived mid-burst and was not topped off to a full
// chunk or ended by a PSH segment within coalesceDelay. A window whose
// chunk a PSH already emitted fires as a no-op.
type rxFlush ServiceLib

func (h *rxFlush) HandleFrame(_ []byte, cid uint64) {
	s := (*ServiceLib)(h)
	if cs := s.conns[uint32(cid)]; cs != nil {
		cs.flushPending = false
	}
	s.deliverData(uint32(cid), true)
}

// shaperRetry resumes a connection's send drain once the shaper has
// tokens again (pumpSend).
type shaperRetry ServiceLib

func (h *shaperRetry) HandleFrame(_ []byte, cid uint64) {
	s := (*ServiceLib)(h)
	if cs := s.conns[uint32(cid)]; cs != nil {
		cs.shaperWait = false
		s.pumpSend(cs)
	}
}

// ServiceLib is one NSM's queue pump and stack driver.
type ServiceLib struct {
	cfg       Config
	conns     map[uint32]*connState
	listeners map[uint32]*listenerState
	nextCID   uint32
	stats     counters
	// backlog holds emissions that found their ring full, one per
	// shard; every pump retries them in order, so a data flood can
	// delay but never lose a completion or connection event.
	backlog []nkqueue.Backlog
	// connPool recycles connState objects under connection churn, the
	// NSM half of the short-flow slab path.
	connPool []*connState
	// drain is the reusable job batch buffer: one pump pops whole ring
	// spans at a time instead of element by element (§3.2 "batched
	// interrupts").
	drain []nqe.Element
	// acceptBatch (per shard) and acceptCIDs are NewAcceptCallback's
	// scratch, kept between calls.
	acceptBatch [][]nqe.Element
	acceptCIDs  []uint32
	// dead marks a crashed module: pumps and emissions are no-ops until
	// Attach binds a rebooted stack.
	dead bool
}

// New builds a ServiceLib and wires it to the pair's NSM-side kick.
func New(cfg Config) *ServiceLib {
	if cfg.Clock == nil || cfg.Pair == nil || cfg.Stack == nil {
		panic("servicelib: Config requires Clock, Pair, and Stack")
	}
	if cfg.RecvWindow <= 0 {
		cfg.RecvWindow = DefaultRecvWindow
	}
	cfg.Pair.EnsureShards()
	s := &ServiceLib{
		cfg:       cfg,
		conns:     make(map[uint32]*connState),
		listeners: make(map[uint32]*listenerState),
		backlog:   make([]nkqueue.Backlog, len(cfg.Pair.Shards)),
		drain:     make([]nqe.Element, 64),
	}
	s.stats.register(cfg.Metrics)
	for i := range s.backlog {
		s.backlog[i].Wake = func(*nkqueue.Queue) { s.kickEngine(i) }
	}
	cfg.Pair.KickNSM = s.pump
	return s
}

// nshards returns the channel's shard count.
func (s *ServiceLib) nshards() int { return len(s.cfg.Pair.Shards) }

// shardForConn pins an accepted connection to a shard by its 4-tuple,
// with the same canonical hash the stack's frame dispatch uses.
func (s *ServiceLib) shardForConn(conn *tcp.Conn) int {
	n := s.nshards()
	if n <= 1 {
		return 0
	}
	l, r := conn.LocalAddr(), conn.RemoteAddr()
	return vswitch.ShardOf(vswitch.TupleHash(l.Addr, l.Port, r.Addr, r.Port), n)
}

// Stats returns a copy of the counters, read atomically.
func (s *ServiceLib) Stats() Stats { return s.stats.snapshot() }

// CC returns the module's congestion-control name.
func (s *ServiceLib) CC() string { return s.cfg.CC }

// kickEngine wakes the engine pump that consumes shard's output rings.
func (s *ServiceLib) kickEngine(shard int) {
	if kick := s.cfg.Pair.KickEngineNSM; kick != nil {
		kick(shard)
	}
}

// outbound stamps e as this module's emission and returns the ring of
// kind q it rides on shard.
func (s *ServiceLib) outbound(shard int, q nkchan.QueueKind, e *nqe.Element) *nkqueue.Queue {
	e.NSMID = s.cfg.NSMID
	e.Source = nqe.FromNSM
	rings := &s.cfg.Pair.Shards[shard]
	if q == nkchan.Completion {
		// Completions are responses to send-path spans and are not
		// separately traced.
		return rings.NSMCompletion
	}
	// The receive-path span opens here, the mirror of GuestLib.prepare:
	// sampled events carry their span id toward the VM.
	if tr := s.cfg.Tracer; tr.Enabled() && e.Trace == 0 {
		e.Trace = tr.Start(e.Op.RxSpan())
	}
	s.cfg.Tracer.Stamp(e.Trace, "servicelib.emit", int64(rings.NSMReceive.Len()))
	return rings.NSMReceive
}

func (s *ServiceLib) emit(shard int, q nkchan.QueueKind, e *nqe.Element) {
	if s.dead {
		return
	}
	shard = s.cfg.Pair.ShardIndex(shard)
	s.backlog[shard].Push(s.outbound(shard, q, e), e)
	s.kickEngine(shard)
}

// emitBatch pushes a run of same-shard elements as one ring span with a
// single kick — the accept path's connection-setup batching. Elements
// that do not fit join the backlog like single emissions.
func (s *ServiceLib) emitBatch(shard int, q nkchan.QueueKind, es []nqe.Element) {
	if s.dead || len(es) == 0 {
		return
	}
	shard = s.cfg.Pair.ShardIndex(shard)
	var target *nkqueue.Queue
	for i := range es {
		target = s.outbound(shard, q, &es[i])
	}
	n := 0
	if s.backlog[shard].Len() == 0 {
		n = target.PushBatch(es)
	}
	for i := n; i < len(es); i++ {
		s.backlog[shard].Push(target, &es[i])
	}
	s.kickEngine(shard)
}

// emitClosed emits a socket's OpConnClosed, the last element ServiceLib
// emits for the cID, carrying in Arg1 the OpNewConns announced for a
// listener (0 for any other socket).
func (s *ServiceLib) emitClosed(shard int, cid uint32, st nqe.Status, announced uint32) {
	s.emit(shard, nkchan.Receive, &nqe.Element{Op: nqe.OpConnClosed, CID: cid, Status: st, Arg1: uint64(announced)})
}

// newConnState takes a connState from the recycling pool (or the heap),
// the NSM half of the short-flow slab path: accept/close churn stops
// allocating per connection once the pool warms up.
func (s *ServiceLib) newConnState() *connState {
	if n := len(s.connPool); n > 0 {
		cs := s.connPool[n-1]
		s.connPool = s.connPool[:n-1]
		return cs
	}
	cs := &connState{svc: s}
	cs.opts = stack.SocketOptions{
		OnEstablished: cs.established,
		OnReadable:    cs.readable,
		OnWritable:    cs.writable,
		OnClose:       cs.closed,
	}
	cs.sink = cs.receive
	return cs
}

// freeConnState returns a retired connState to the pool, keeping its
// send queue's storage and its callbacks; sends still queued are
// answered with an error first. A coalescing window or shaper retry
// still pending is keyed by cID, not by pointer, so it can never find
// the reincarnated connection behind a recycled struct.
func (s *ServiceLib) freeConnState(cs *connState) {
	s.dropSendQ(cs)
	*cs = connState{svc: cs.svc, sendQ: cs.sendQ, opts: cs.opts, sink: cs.sink}
	s.connPool = append(s.connPool, cs)
}

// pump drains the NSM job queue; the CoreEngine kicks it. The
// prototype "continuously polls the queues to execute the operations
// from GuestLib via NetKernel CoreEngine" (§4.1) — under the event
// executor a kick-driven drain is the batched-interrupt variant.
func (s *ServiceLib) pump(shard int) {
	if s.dead {
		return
	}
	shard = s.cfg.Pair.ShardIndex(shard)
	rings := &s.cfg.Pair.Shards[shard]
	for {
		n := rings.NSMJob.PopBatch(s.drain)
		if n == 0 {
			break
		}
		s.stats.jobsProcessed.Add(uint64(n))
		for i := range s.drain[:n] {
			s.handleJob(shard, &s.drain[i])
		}
	}
	// The engine kicks this pump after draining the output rings, so
	// this is where parked emissions find room again.
	s.backlog[shard].Drain()
}

func (s *ServiceLib) handleJob(shard int, e *nqe.Element) {
	if e.Trace != 0 {
		// Send spans stay open until the payload reaches the stack in
		// pumpSend; every other op's span ends at dispatch.
		if e.Op == nqe.OpSend {
			s.cfg.Tracer.Stamp(e.Trace, "servicelib.dispatch", 0)
		} else {
			s.cfg.Tracer.End(e.Trace, "servicelib.dispatch")
		}
	}
	switch e.Op {
	case nqe.OpSocket:
		s.nextCID++
		cid := s.nextCID
		cs := s.newConnState()
		cs.cid, cs.shard = cid, shard
		s.conns[cid] = cs
		s.emit(shard, nkchan.Completion, &nqe.Element{Op: nqe.OpSocket, CID: cid, Seq: e.Seq})

	case nqe.OpConnect:
		s.handleConnect(e)

	case nqe.OpListen:
		s.handleListen(shard, e)

	case nqe.OpSend:
		if !s.cfg.Pair.Pages.Held(shm.Chunk{Offset: e.DataOff}) {
			// The engine checked the descriptor, but the guest may have
			// freed the chunk since: Retain or Free would panic on it.
			s.cfg.Tracer.Drop(e.Trace)
			s.emit(shard, nkchan.Completion, &nqe.Element{Op: nqe.OpSend, CID: e.CID, Status: nqe.StatusInvalid})
			return
		}
		cs := s.conns[e.CID]
		if cs == nil {
			s.cfg.Pair.Pages.Free(shm.Chunk{Offset: e.DataOff})
			s.cfg.Tracer.Drop(e.Trace)
			s.emit(shard, nkchan.Completion, &nqe.Element{Op: nqe.OpSend, CID: e.CID, DataLen: e.DataLen, Status: nqe.StatusClosed})
			return
		}
		cs.sendQ.Push(sendChunk{chunk: shm.Chunk{Offset: e.DataOff}, size: int(e.DataLen), trace: e.Trace})
		s.pumpSend(cs)

	case nqe.OpRecv:
		cs := s.conns[e.CID]
		if cs == nil {
			return
		}
		cs.recvDebt -= int(e.Arg0)
		if cs.recvDebt < 0 {
			cs.recvDebt = 0
		}
		s.NewDataCallback(cs.cid)

	case nqe.OpSetSockOpt:
		cs := s.conns[e.CID]
		if cs == nil || cs.conn == nil {
			s.emit(shard, nkchan.Completion, &nqe.Element{Op: nqe.OpSetSockOpt, CID: e.CID, Seq: e.Seq, Status: nqe.StatusInvalid})
			return
		}
		status := nqe.StatusOK
		switch e.Arg0 {
		case nqe.SockOptNagle:
			cs.conn.SetNagle(e.Arg1 != 0)
		case nqe.SockOptPriority:
			// Accepted; the priority-queue discipline (nkqueue) already
			// services connection events first.
		default:
			status = nqe.StatusNotSupported
		}
		s.emit(cs.shard, nkchan.Completion, &nqe.Element{Op: nqe.OpSetSockOpt, CID: e.CID, Seq: e.Seq, Status: status})

	case nqe.OpClose:
		if cs := s.conns[e.CID]; cs != nil && cs.conn != nil {
			// Closing now would have connClosed free sends the guest was
			// told are queued; the FIN goes out behind them instead.
			if cs.sendQ.Len() > 0 {
				cs.closePending = true
			} else {
				cs.conn.Close()
			}
		} else if ls := s.listeners[e.CID]; ls != nil {
			s.cfg.Stack.CloseListener(ls.lst.Addr().Port)
			delete(s.listeners, e.CID)
			// A handshake still in flight completes into the closed
			// listener; reset it here instead of announcing it, so no
			// element names this cID after its OpConnClosed.
			ls.lst.OnAcceptable = func() { resetBacklog(ls.lst) }
			// Same for listeners: no TCP teardown will ever report this
			// cID closed, so the close is confirmed here, with the count
			// of accepts announced: the engine keeps the mapping until the
			// last of them, on its own shard, has been translated.
			s.emitClosed(ls.shard, e.CID, nqe.StatusOK, ls.announced)
		} else if cs != nil {
			// A socket that never connected: no TCP teardown will report
			// it, so retire it and confirm the close here.
			delete(s.conns, e.CID)
			s.emit(cs.shard, nkchan.Receive, &nqe.Element{Op: nqe.OpConnClosed, CID: e.CID, Status: nqe.StatusOK})
			s.freeConnState(cs)
		}
	}
}

func (s *ServiceLib) handleConnect(e *nqe.Element) {
	cs := s.conns[e.CID]
	// A second connect on a connected socket is ignored: the first
	// connection's callbacks are bound to cs.
	if cs == nil || cs.conn != nil {
		return
	}
	ip, port := nqe.UnpackAddr(e.Arg0)
	opts := cs.opts
	opts.CC = s.cfg.CC
	conn, err := s.cfg.Stack.Dial(tcp.AddrPort{Addr: ip, Port: port}, opts)
	if err != nil {
		s.emit(cs.shard, nkchan.Receive, &nqe.Element{Op: nqe.OpEstablished, CID: cs.cid, Status: statusFromErr(err)})
		return
	}
	cs.conn = conn
	conn.SetPushSink(cs.sink)
	s.stats.conns.Inc()
}

func (s *ServiceLib) handleListen(shard int, e *nqe.Element) {
	cs := s.conns[e.CID]
	if cs == nil {
		s.emit(shard, nkchan.Completion, &nqe.Element{Op: nqe.OpListen, CID: e.CID, Seq: e.Seq, Status: nqe.StatusInvalid})
		return
	}
	port := uint16(e.Arg0)
	backlog := int(e.Arg1)
	lst, err := s.cfg.Stack.Listen(port, backlog, stack.SocketOptions{CC: s.cfg.CC})
	s.emit(cs.shard, nkchan.Completion, &nqe.Element{Op: nqe.OpListen, CID: e.CID, Seq: e.Seq, Status: statusFromErr(err)})
	if err != nil {
		return
	}
	ls := &listenerState{cid: e.CID, shard: cs.shard, lst: lst}
	s.listeners[e.CID] = ls
	delete(s.conns, e.CID) // the cid now names a listener
	lst.OnAcceptable = func() { s.NewAcceptCallback(ls) }
}

// resetBacklog resets every connection waiting in a closed listener's
// backlog, as a kernel does when a listening socket closes.
func resetBacklog(l *tcp.Listener) {
	for conn, ok := l.Accept(); ok; conn, ok = l.Accept() {
		conn.Abort()
	}
}

// NewAcceptCallback is the prototype's nk_new_accept_callback: it
// harvests accepted connections from a listener, registers them under
// fresh connection IDs, and emits new-connection events toward the VM.
//
// The whole pending backlog drains in one sweep and the resulting
// OpNewConn events leave as one spanned batch per shard with a single
// kick (connection-setup batching, DESIGN.md §11) — a synchronized
// accept burst costs one kick, not one per connection.
func (s *ServiceLib) NewAcceptCallback(ls *listenerState) {
	// The scratch leaves s while in use, so a nested call builds its own.
	batch, cids := s.acceptBatch, s.acceptCIDs[:0]
	s.acceptBatch, s.acceptCIDs = nil, nil
	for i := range batch {
		batch[i] = batch[i][:0]
	}
	for {
		conn, ok := ls.lst.Accept()
		if !ok {
			break
		}
		s.nextCID++
		cid := s.nextCID
		// The accepted flow pins to its hash shard for life; its
		// OpNewConn rides that shard too, so the engine installs the
		// mapping where every later element of the flow will look it
		// up, and the shard's FIFO orders the event before the data.
		cs := s.newConnState()
		cs.cid, cs.shard, cs.conn = cid, s.shardForConn(conn), conn
		s.conns[cid] = cs
		conn.SetCallbacks(cs.opts.OnReadable, cs.opts.OnWritable, cs.opts.OnClose)
		conn.SetPushSink(cs.sink)
		s.stats.accepts.Inc()
		ls.announced++
		remote := conn.RemoteAddr()
		if batch == nil {
			batch = make([][]nqe.Element, s.nshards())
		}
		batch[cs.shard] = append(batch[cs.shard], nqe.Element{
			Op: nqe.OpNewConn, CID: ls.cid,
			Arg0: nqe.PackAddr(remote.Addr, remote.Port),
			Arg1: uint64(cid),
		})
		cids = append(cids, cid)
	}
	if len(cids) > 0 {
		for shard, es := range batch {
			s.emitBatch(shard, nkchan.Receive, es)
		}
		// Deliver anything that arrived before the accepts; the OpNewConn
		// batch is already in the rings (and rides the priority lane), so
		// each connection's data events order behind its announcement.
		for _, cid := range cids {
			s.NewDataCallback(cid)
		}
	}
	s.acceptBatch, s.acceptCIDs = batch, cids
}

// NewDataCallback is the prototype's nk_new_data_callback: "when data
// is received ServiceLib puts data into the huge pages, and adds an
// nqe to the NSM receive queue" (§3.2). It respects the per-connection
// shm receive window; OpRecv credits reopen it.
func (s *ServiceLib) NewDataCallback(cid uint32) {
	s.deliverData(cid, false)
}

func (s *ServiceLib) deliverData(cid uint32, flush bool) {
	cs := s.conns[cid]
	if cs == nil || cs.conn == nil {
		return
	}
	chunkSize := s.cfg.Pair.ChunkSize()
	for cs.recvDebt < s.cfg.RecvWindow {
		avail := cs.conn.ReadAvailable()
		if avail == 0 {
			if flush {
				s.emitRxChunk(cs)
			}
			if _, eof := cs.conn.Read(nil); eof {
				// The open receive chunk's bytes precede EOF in stream
				// order: emit them before the close event.
				s.emitRxChunk(cs)
				if !cs.eofSent {
					cs.eofSent = true
					s.emitClosed(cs.shard, cid, nqe.StatusOK, 0)
				}
			}
			return
		}
		// rcvBuf only fills after the sink stops consuming, so whatever
		// sits in the open receive chunk arrived earlier; emit it first
		// to preserve stream order.
		s.emitRxChunk(cs)
		// Coalesce sub-chunk dribbles: wait briefly for a full chunk so
		// bulk transfers move one nqe per chunk, not one per segment.
		// These bytes sit in rcvBuf because the sink refused them (no shm
		// credit or no free chunk), so the VM is behind; and rcvBuf keeps
		// no PSH boundaries. This path keeps its window even at a push.
		if avail < chunkSize && !flush {
			s.armRxFlush(cs)
			return
		}
		chunk, ok := s.cfg.Pair.Pages.Alloc()
		if !ok {
			return // huge pages exhausted; credits will retrigger
		}
		buf := s.cfg.Pair.Pages.Bytes(chunk)
		n, eof := cs.conn.Read(buf)
		if n == 0 {
			s.cfg.Pair.Pages.Free(chunk)
			if eof && !cs.eofSent {
				cs.eofSent = true
				s.emitClosed(cs.shard, cid, nqe.StatusOK, 0)
			}
			return
		}
		cs.recvDebt += n
		s.stats.dataOut.Add(uint64(n))
		s.emit(cs.shard, nkchan.Receive, &nqe.Element{
			Op: nqe.OpNewData, CID: cid,
			DataOff: chunk.Offset, DataLen: uint32(n),
		})
		flush = false // only the first read after a flush may be short
	}
}

// sinkData is the conn's receive sink (the rcvBuf bypass): in-order
// reassembled payload moves straight into the open huge-page chunk, one
// copy, instead of transiting the conn's receive buffer and being copied
// back out. Refusing bytes (shm window exhausted, pool empty, dead
// module) pushes them into the conn's rcvBuf, whose fill closes the TCP
// window — ordinary flow control remains the backstop.
//
// A partly filled chunk leaves at once when p ends a PSH segment and was
// taken whole: the sender has nothing more queued, so waiting out the
// coalescing window would only add its length to the message's latency.
// Otherwise the chunk waits up to coalesceDelay to fill.
func (s *ServiceLib) sinkData(cs *connState, p []byte, push bool) int {
	if s.dead || cs.recvDebt >= s.cfg.RecvWindow {
		return 0
	}
	chunkSize := s.cfg.Pair.ChunkSize()
	consumed := 0
	for len(p) > 0 && cs.recvDebt < s.cfg.RecvWindow {
		if !cs.rxHave {
			chunk, ok := s.cfg.Pair.Pages.Alloc()
			if !ok {
				break // pool exhausted; remainder buffers in the conn
			}
			cs.rxChunk, cs.rxHave, cs.rxFill = chunk, true, 0
		}
		n := copy(s.cfg.Pair.Pages.Bytes(cs.rxChunk)[cs.rxFill:], p)
		cs.rxFill += n
		consumed += n
		p = p[n:]
		s.stats.rxBytesCopied.Add(uint64(n))
		if cs.rxFill == chunkSize {
			s.emitRxChunk(cs)
		}
	}
	if cs.rxHave && cs.rxFill > 0 {
		if push && len(p) == 0 {
			s.emitRxChunk(cs)
		} else {
			s.armRxFlush(cs)
		}
	}
	return consumed
}

// emitRxChunk pushes the open receive chunk (if it holds any bytes)
// toward the VM and charges it against the shm receive window.
func (s *ServiceLib) emitRxChunk(cs *connState) {
	if !cs.rxHave || cs.rxFill == 0 {
		return
	}
	cs.recvDebt += cs.rxFill
	s.stats.dataOut.Add(uint64(cs.rxFill))
	s.emit(cs.shard, nkchan.Receive, &nqe.Element{
		Op: nqe.OpNewData, CID: cs.cid,
		DataOff: cs.rxChunk.Offset, DataLen: uint32(cs.rxFill),
	})
	cs.rxHave, cs.rxFill = false, 0
}

// armRxFlush schedules delivery of a partially-filled receive chunk,
// waiting up to coalesceDelay for more payload to top it off (the same
// batching the buffered path applies).
func (s *ServiceLib) armRxFlush(cs *connState) {
	if cs.flushPending {
		return
	}
	cs.flushPending = true
	s.cfg.Clock.AfterFrame(coalesceDelay, (*rxFlush)(s), nil, uint64(cs.cid))
}

// pumpSend drains a connection's queued chunks into the stack socket,
// returning credit as each is accepted. The hot path hands the whole
// chunk to the TCP conn as an owned span — no copy into the socket
// buffer; the conn holds its own huge-page reference and drops it when
// the last covering byte is cumulatively ACKed (or the conn dies). A
// configured Shaper gates the drain, enforcing the tenant's throughput
// allocation.
func (s *ServiceLib) pumpSend(cs *connState) {
	if cs.conn == nil || cs.shaperWait {
		return
	}
	pages := s.cfg.Pair.Pages
	for cs.sendQ.Len() > 0 {
		head := cs.sendQ.Front()
		data := pages.Bytes(head.chunk)[head.off:head.size]
		if s.cfg.Shaper != nil {
			ok, retry := s.cfg.Shaper.Take(len(data))
			if !ok {
				cs.shaperWait = true
				s.cfg.Clock.AfterFrame(retry, (*shaperRetry)(s), nil, uint64(cs.cid))
				return
			}
		}
		if head.off == 0 && head.size <= cs.conn.WriteBufferCap() {
			// Zero-copy hand-off. The span takes its own reference so
			// that a module crash (which frees the queue's reference)
			// cannot pull the chunk out from under in-flight segments.
			// A chunk that cannot fit is still offered, with no
			// Releaser and no reference: the refusal arms OnWritable.
			chunk := head.chunk
			var rel tcp.Releaser
			if head.size <= cs.conn.WriteBufferFree() {
				pages.Retain(chunk)
				rel = pages
			}
			if !cs.conn.WriteOwned(data, rel, chunk.Offset) {
				if rel != nil {
					pages.Free(chunk) // hand-off refused: drop the span's reference
				}
				if s.cfg.Shaper != nil {
					s.cfg.Shaper.Refund(len(data))
				}
				return // send buffer full (or conn closing); OnWritable resumes
			}
			s.stats.dataIn.Add(uint64(head.size))
			s.cfg.Tracer.End(head.trace, "stack.tx")
			pages.Free(chunk) // the queue's reference; the span keeps its own
			s.emit(cs.shard, nkchan.Completion, &nqe.Element{
				Op: nqe.OpSend, CID: cs.cid, DataLen: uint32(head.size), Status: nqe.StatusOK,
			})
			cs.sendQ.Pop()
			continue
		}
		// Copy fallback: a chunk larger than the conn's whole send buffer
		// can never fit as a single span; stream it through Write (the
		// TCP layer counts that copy).
		n := cs.conn.Write(data)
		if s.cfg.Shaper != nil && n < len(data) {
			s.cfg.Shaper.Refund(len(data) - n)
		}
		head.off += n
		s.stats.dataIn.Add(uint64(n))
		if head.off < head.size {
			return // socket buffer full; OnWritable resumes
		}
		s.cfg.Tracer.End(head.trace, "stack.tx")
		pages.Free(head.chunk)
		s.emit(cs.shard, nkchan.Completion, &nqe.Element{
			Op: nqe.OpSend, CID: cs.cid, DataLen: uint32(head.size), Status: nqe.StatusOK,
		})
		cs.sendQ.Pop()
	}
	if cs.closePending {
		cs.closePending = false
		cs.conn.Close()
	}
}

func (s *ServiceLib) connClosed(cid uint32, err error) {
	cs := s.conns[cid]
	if cs == nil {
		return
	}
	// Flush any remaining readable data first (synchronously — the
	// coalescing timer must not outlive the connection).
	s.deliverData(cid, true)
	if !cs.eofSent {
		cs.eofSent = true
		s.emitClosed(cs.shard, cid, statusFromErr(err), 0)
	}
	// The connection has ended and, released, nothing here will touch it
	// again: the stack may rebuild it for the next one. (Chunks handed to
	// the conn as send spans were released by the conn's own teardown.)
	s.cfg.Stack.ReleaseConn(s.release(cs))
}

// dropSendQ returns a connection's still-queued send chunks to the pool,
// abandons their trace spans and answers each job with an error
// completion: every OpSend gets exactly one completion, the count the
// engine's mapping retirement relies on. (A crashed module emits
// nothing; the engine's reset clears its mappings instead.)
func (s *ServiceLib) dropSendQ(cs *connState) {
	for i := 0; i < cs.sendQ.Len(); i++ {
		c := cs.sendQ.At(i)
		s.cfg.Pair.Pages.Free(c.chunk)
		s.cfg.Tracer.Drop(c.trace)
		s.emit(cs.shard, nkchan.Completion, &nqe.Element{
			Op: nqe.OpSend, CID: cs.cid, DataLen: uint32(c.size), Status: nqe.StatusClosed,
		})
	}
	cs.sendQ.Clear()
}

// statusFromErr maps stack errors onto the nqe status space carried
// over the wire-format queues.
func statusFromErr(err error) nqe.Status {
	var timeout interface{ Timeout() bool }
	switch {
	case err == nil:
		return nqe.StatusOK
	case errors.Is(err, tcp.ErrRefused):
		return nqe.StatusConnRefused
	case errors.Is(err, tcp.ErrReset), errors.Is(err, tcp.ErrAborted):
		return nqe.StatusConnReset
	case errors.Is(err, tcp.ErrClosedBeforeEstablished):
		return nqe.StatusClosed
	case errors.As(err, &timeout) && timeout.Timeout():
		return nqe.StatusTimeout
	case errors.Is(err, stack.ErrNoRoute):
		return nqe.StatusUnreachable
	case errors.Is(err, stack.ErrPortInUse), errors.Is(err, stack.ErrPortsExhausted):
		return nqe.StatusAddrInUse
	default:
		return nqe.StatusInvalid
	}
}
