// Package guestlib implements the guest half of NetKernel: the library
// that replaces the in-guest network stack while preserving the socket
// API (§3.1: "the network API methods are intercepted by a NetKernel
// GuestLib in the guest kernel … the only change we make to the tenant
// VM").
//
// Socket calls become nqes in the VM job queue; data travels through
// the shared huge pages; completions and events (new data, new
// connections, establishment) come back through the VM completion and
// receive queues. The prototype interposes on glibc with LD_PRELOAD
// (§4.1); here the application calls GuestLib directly, which is the
// same boundary one layer down.
package guestlib

import (
	"fmt"

	"netkernel/internal/fifo"
	"netkernel/internal/nkchan"
	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/shm"
	"netkernel/internal/sim"
	"netkernel/internal/telemetry"
)

func shmChunk(off uint64) shm.Chunk { return shm.Chunk{Offset: off} }

// GuestProfile names the guest OS flavor. Its only behavioural content
// is the default congestion control of the guest's *legacy* in-kernel
// stack — exactly the distinction Figure 5 draws between a Windows
// guest (C-TCP) and a Linux guest (CUBIC). A NetKernel guest's traffic
// uses whatever the attached NSM runs, regardless of profile.
type GuestProfile string

// Guest profiles.
const (
	ProfileLinux   GuestProfile = "linux"   // in-kernel default: CUBIC
	ProfileWindows GuestProfile = "windows" // in-kernel default: C-TCP
	ProfileFreeBSD GuestProfile = "freebsd" // in-kernel default: Reno (NewReno)
)

// DefaultCC returns the profile's legacy in-kernel congestion control.
func (p GuestProfile) DefaultCC() string {
	switch p {
	case ProfileWindows:
		return "ctcp"
	case ProfileFreeBSD:
		return "reno"
	default:
		return "cubic"
	}
}

// Callbacks are the application-facing event hooks for one socket —
// the epoll-style notification surface of §3.2.
type Callbacks struct {
	// OnEstablished fires when a Connect completes (err nil) or fails.
	OnEstablished func(err error)
	// OnAcceptable fires when a listener has connections to Accept.
	OnAcceptable func()
	// OnReadable fires when data or EOF is available to Recv.
	OnReadable func()
	// OnWritable fires when Send capacity returns after a short write.
	OnWritable func()
	// OnClose fires when the connection terminates; err nil for clean.
	OnClose func(err error)
}

// DefaultSendCredit is a socket's shm send window when Config.SendCredit
// is 0.
const DefaultSendCredit = 1 << 20

// Config parameterizes a GuestLib.
type Config struct {
	Clock sim.Clock
	VMID  uint32
	// Pairs lists the channels to the VM's NSM, one per NSM replica
	// for scale-out (§2.1 "scale out with more modules to support
	// higher throughput"); sockets are spread across them round-robin.
	Pairs []*nkchan.Pair
	// SendCredit bounds bytes in the huge pages awaiting the NSM per
	// socket (default DefaultSendCredit): the shm-level send window.
	SendCredit int
	// Metrics, when set, publishes the GuestLib counters into the host
	// telemetry registry (e.g. "vm1.guest.bytes_sent").
	Metrics *telemetry.Scope
	// Tracer, when set and sampling, opens a span for sampled job
	// pushes; the span id rides in the nqe's trace field and each
	// downstream layer stamps a hop against it.
	Tracer *telemetry.Tracer
}

// Stats is the GuestLib's live counter set, published under each
// field's metric tag. Every field is an atomic telemetry.Counter:
// management-plane readers (VM.CopyReport, registry snapshots) may run
// on another goroutine than the loop the guest issues ops on.
type Stats struct {
	OpsIssued     telemetry.Counter `metric:"ops_issued"`
	Completions   telemetry.Counter `metric:"completions"`
	Events        telemetry.Counter `metric:"events"`
	BytesSent     telemetry.Counter `metric:"bytes_sent"`
	BytesReceived telemetry.Counter `metric:"bytes_received"`
	CreditStalls  telemetry.Counter `metric:"credit_stalls"`
	// TxBytesCopied and RxBytesCopied count payload bytes this layer
	// memcpy'd: application buffer → huge-page chunk on send, chunk →
	// application buffer on receive. One copy per byte per direction —
	// the socket-API boundary copies that cannot be elided.
	TxBytesCopied telemetry.Counter `metric:"tx_bytes_copied"`
	RxBytesCopied telemetry.Counter `metric:"rx_bytes_copied"`
	// PollerWakeups counts OnReady invocations; PollerEvents the
	// per-socket readiness notifications those wakeups amortized.
	PollerWakeups telemetry.Counter `metric:"poller_wakeups"`
	PollerEvents  telemetry.Counter `metric:"poller_events"`
}

// opLatency holds the per-op round-trip histograms (nanoseconds of
// virtual time, log2 buckets): the setup/teardown paths the short-flow
// work targets, surfaced in `nkctl stats` and the nkbench micro
// excerpt. Scope.Histogram is nil-safe, so an unmetered GuestLib
// observes into no-ops.
type opLatency struct {
	socketRTT  *telemetry.Histogram // Socket() → OpSocket completion
	connectRTT *telemetry.Histogram // Connect() → OpEstablished
	acceptWait *telemetry.Histogram // OpNewConn arrival → Accept() drain
	closeRTT   *telemetry.Histogram // Close() → OpConnClosed
}

func (l *opLatency) register(m *telemetry.Scope) {
	l.socketRTT = m.Histogram("socket_rtt_ns")
	l.connectRTT = m.Histogram("connect_rtt_ns")
	l.acceptWait = m.Histogram("accept_wait_ns")
	l.closeRTT = m.Histogram("close_rtt_ns")
}

type sockKind int

const (
	kindStream sockKind = iota
	kindListener
)

type sockState int

const (
	stIdle sockState = iota
	stConnecting
	stListening
	stEstablished
	stClosed
)

type socket struct {
	fd    int32
	kind  sockKind
	state sockState
	cbs   Callbacks
	// pair is the NSM-replica channel this socket lives on; shard is
	// the channel shard every nqe of this socket rides (flow
	// affinity): assigned round-robin at creation for guest-created
	// sockets, inherited from the OpNewConn event's arrival shard for
	// accepted ones.
	pair  *nkchan.Pair
	shard int

	// ready turns true once the CoreEngine has installed the fd↔cID
	// mapping (the OpSocket completion, §3.2). Control operations
	// issued before that are deferred, which is what the blocking
	// socket() of the real API amounts to.
	ready    bool
	deferred []nqe.Element

	// Send-side shm credit.
	credit    int
	wantWrite bool

	// closeSent records that OpClose was issued, so Close is
	// idempotent but still works after the peer's EOF (a conn-closed
	// event reports the remote direction closing; the local side must
	// still close to release the NSM connection).
	closeSent bool

	// Receive side: huge-page chunks still owned by this socket, in
	// order. Recv copies straight from the chunk into the caller's
	// buffer and frees each chunk as it is fully consumed — the old
	// intermediate copy into a per-event []byte is gone.
	recvQ    fifo.Ring[recvSeg]
	recvOff  int
	eof      bool
	closeErr error
	accepts  fifo.Ring[int32]

	// inStalled marks membership in GuestLib.stalled, making the stall
	// queue O(ready) instead of a linear dedup scan per mark.
	inStalled bool
	// closedSeen records the OpConnClosed event, so teardown knows when
	// both directions are done and the socket can recycle.
	closedSeen bool

	// Poller attachment (DESIGN.md §11): a polled socket feeds readiness
	// masks into its poller instead of firing per-event OnReadable/
	// OnAcceptable/OnWritable callbacks (OnEstablished and OnClose still
	// fire — they are lifecycle, not readiness). pollMask accumulates
	// events not yet drained by Wait; a zero mask means the socket is
	// not on the poller's ready list.
	poller   *Poller
	pollMask uint32

	// Virtual-time stamps feeding the per-op latency histograms.
	sockStart    sim.Time
	connectStart sim.Time
	closeStart   sim.Time
	acceptedAt   sim.Time
}

// recvSeg is one received chunk awaiting Recv: the socket holds the
// huge-page reference until the application consumes the bytes (or the
// socket closes).
type recvSeg struct {
	chunk shm.Chunk
	size  int
}

// GuestLib is one tenant VM's NetKernel endpoint.
type GuestLib struct {
	cfg       Config
	pairs     []*nkchan.Pair
	nextPair  int // round-robin socket placement across replicas
	nextShard int // round-robin shard placement within a pair
	sockets   map[int32]*socket
	nextFD    int32
	seq       uint64
	stats     Stats
	latency   opLatency
	// pollers lists every live Poller so the pump can deliver the one
	// amortized OnReady wakeup per batch.
	pollers []*Poller
	// sockPool recycles socket structs under connection churn (the
	// guest half of the short-flow slab path). Descriptors stay
	// monotonic — only the structs recycle, so a stale fd can never
	// alias a new connection.
	sockPool []*socket
	// stalled lists sockets whose Send came up short (credit, huge
	// pages, or job-queue space). Every pump revisits them so one
	// greedy socket cannot starve its siblings of queue slots; the
	// visit swaps stalled with spare, so neither is ever reallocated.
	stalled, spare []int32
	// backlog holds control operations and receive credits that found
	// the job queue full; every pump retries them (in order, ahead of
	// new work) so a data flood can delay but never lose a connect, a
	// close or a credit.
	backlog nkqueue.Backlog
	// drain is the reusable completion/receive batch buffer: one pump
	// pops whole ring spans at a time instead of element by element
	// (§3.2 "batched interrupts").
	drain []nqe.Element
}

// New builds a GuestLib and wires it to its pairs' VM-side kicks.
func New(cfg Config) *GuestLib {
	pairs := cfg.Pairs
	if cfg.Clock == nil || len(pairs) == 0 {
		panic("guestlib: Config requires Clock and at least one Pair")
	}
	if cfg.SendCredit <= 0 {
		cfg.SendCredit = DefaultSendCredit
	}
	g := &GuestLib{
		cfg: cfg, pairs: pairs, sockets: make(map[int32]*socket), nextFD: 3,
		drain: make([]nqe.Element, 64),
	}
	cfg.Metrics.Publish(&g.stats)
	g.latency.register(cfg.Metrics)
	g.backlog.Wake = g.kickEngine
	for _, p := range pairs {
		p := p
		p.EnsureShards()
		p.KickVM = func(shard int) { g.pump(p, shard) }
	}
	return g
}

// newSocket takes a socket struct from the recycling pool (or the
// heap). Under accept/close churn the pool keeps short-lived
// connections from allocating at all; descriptors are never recycled,
// only the structs behind them.
func (g *GuestLib) newSocket() *socket {
	if n := len(g.sockPool); n > 0 {
		s := g.sockPool[n-1]
		g.sockPool = g.sockPool[:n-1]
		return s
	}
	return &socket{}
}

// releaseSocket retires a fully-closed socket: any receive chunks still
// held go back to the huge-page pool, the descriptor unmaps, and the
// struct recycles with its receive ring's and deferred list's storage.
// Stale references by fd (the stall queue, a poller's ready list)
// resolve through the map and find nothing.
func (g *GuestLib) releaseSocket(s *socket) {
	s.freeRecvQ()
	delete(g.sockets, s.fd)
	*s = socket{recvQ: s.recvQ, deferred: s.deferred[:0]}
	g.sockPool = append(g.sockPool, s)
}

// freeRecvQ returns every receive chunk the socket still holds to the
// pool and empties its receive queue.
func (s *socket) freeRecvQ() {
	for i := 0; i < s.recvQ.Len(); i++ {
		s.pair.Pages.Free(s.recvQ.At(i).chunk)
	}
	s.recvQ.Clear()
	s.recvOff = 0
}

// Replicas returns how many NSM channels the guest spreads over.
func (g *GuestLib) Replicas() int { return len(g.pairs) }

// Pairs returns the guest's NSM channels (fault-injection surface for
// the chaos suite).
func (g *GuestLib) Pairs() []*nkchan.Pair { return g.pairs }

// Stats returns a copy of the counters, read atomically.
func (g *GuestLib) Stats() Stats { return telemetry.Load(&g.stats) }

// prepare stamps e as this guest's next job and returns the job ring
// (and its clamped shard index) the element rides.
func (g *GuestLib) prepare(pair *nkchan.Pair, shard int, e *nqe.Element) (*nkqueue.Queue, int) {
	e.VMID = g.cfg.VMID
	e.Source = nqe.FromVM
	g.seq++
	e.Seq = g.seq
	// The send-path span opens here: the sampled element carries its
	// span id in the wire record, and a parked element keeps the id, so
	// the span then measures queueing delay too.
	if tr := g.cfg.Tracer; tr.Enabled() && e.Trace == 0 {
		e.Trace = tr.Start(e.Op.TxSpan())
	}
	shard = pair.ShardIndex(shard)
	return pair.Shards[shard].VMJob, shard
}

// issued accounts for a job accepted on shard's ring; pushed says it is
// in the ring already, so the engine pump that consumes it is kicked.
func (g *GuestLib) issued(pair *nkchan.Pair, shard int, job *nkqueue.Queue, e *nqe.Element, pushed bool) {
	g.stats.OpsIssued.Inc()
	g.cfg.Tracer.Stamp(e.Trace, "guestlib.enqueue", int64(job.Len()))
	if pushed && pair.KickEngineVM != nil {
		pair.KickEngineVM(shard)
	}
}

// push enqueues a descriptor-carrying job. Such an element cannot wait
// in the backlog — its chunk is the caller's to free or resend — so a
// full queue is reported instead.
func (g *GuestLib) push(pair *nkchan.Pair, shard int, e *nqe.Element) bool {
	job, shard := g.prepare(pair, shard, e)
	if !job.Push(e) {
		return false
	}
	g.issued(pair, shard, job, e, true)
	return true
}

// post enqueues a control operation or a receive credit, which must
// never be lost: refused by a full job queue it parks in the backlog.
func (g *GuestLib) post(pair *nkchan.Pair, shard int, e *nqe.Element) {
	job, shard := g.prepare(pair, shard, e)
	g.issued(pair, shard, job, e, g.backlog.Push(job, e))
}

// kickEngine is the backlog's wake: it kicks the engine pump that
// consumes job ring q.
func (g *GuestLib) kickEngine(q *nkqueue.Queue) {
	for _, p := range g.pairs {
		for i := range p.Shards {
			if p.Shards[i].VMJob == q && p.KickEngineVM != nil {
				p.KickEngineVM(i)
			}
		}
	}
}

// placeSocket picks the pair and shard a new socket lives on: pairs
// round-robin (replica spread), then shards round-robin within the
// pair (pump spread). Deterministic given creation order.
func (g *GuestLib) placeSocket() (*nkchan.Pair, int) {
	pair := g.pairs[g.nextPair%len(g.pairs)]
	g.nextPair++
	shard := g.nextShard % pair.NumShards()
	g.nextShard++
	return pair, shard
}

// Socket creates a stream socket and returns its descriptor. (The
// paper has the CoreEngine assign descriptor values; GuestLib drawing
// them from a CoreEngine-granted range is equivalent and saves the
// round trip — the descriptor space still lives outside the guest
// kernel.)
func (g *GuestLib) Socket(cbs Callbacks) int32 {
	fd := g.nextFD
	g.nextFD++
	pair, shard := g.placeSocket()
	s := g.newSocket()
	s.fd, s.kind, s.cbs, s.credit, s.pair, s.shard = fd, kindStream, cbs, g.cfg.SendCredit, pair, shard
	s.sockStart = g.cfg.Clock.Now()
	g.sockets[fd] = s
	g.post(pair, shard, &nqe.Element{Op: nqe.OpSocket, FD: fd})
	return fd
}

// Connect begins a three-way handshake to remote through the NSM's
// stack. The result arrives via OnEstablished. Asynchronous, like the
// §3.2 flow ("the application is returned right away").
func (g *GuestLib) Connect(fd int32, addr ipv4.Addr, port uint16) error {
	s, err := g.stream(fd)
	if err != nil {
		return err
	}
	if s.state != stIdle {
		return fmt.Errorf("guestlib: connect on %v socket", s.state)
	}
	s.state = stConnecting
	s.connectStart = g.cfg.Clock.Now()
	g.pushWhenReady(s, &nqe.Element{Op: nqe.OpConnect, FD: fd, Arg0: nqe.PackAddr(addr, port)})
	return nil
}

// pushWhenReady defers control operations until the CoreEngine has the
// socket's mapping installed.
func (g *GuestLib) pushWhenReady(s *socket, e *nqe.Element) {
	if !s.ready {
		s.deferred = append(s.deferred, *e)
		return
	}
	g.post(s.pair, s.shard, e)
}

// Listen converts the socket into a listener on port.
func (g *GuestLib) Listen(fd int32, port uint16, backlog int) error {
	s, err := g.stream(fd)
	if err != nil {
		return err
	}
	if s.state != stIdle {
		return fmt.Errorf("guestlib: listen on %v socket", s.state)
	}
	s.kind = kindListener
	s.state = stListening
	g.pushWhenReady(s, &nqe.Element{Op: nqe.OpListen, FD: fd, Arg0: uint64(port), Arg1: uint64(backlog)})
	return nil
}

// Accept pops an established connection from a listener's queue,
// returning its descriptor. ok is false when none is pending.
func (g *GuestLib) Accept(lfd int32) (fd int32, ok bool) {
	s := g.sockets[lfd]
	if s == nil || s.kind != kindListener || s.accepts.Len() == 0 {
		return 0, false
	}
	fd = *s.accepts.Front()
	s.accepts.Pop()
	if as := g.sockets[fd]; as != nil {
		g.latency.acceptWait.Observe(uint64(g.cfg.Clock.Now().Sub(as.acceptedAt)))
	}
	return fd, true
}

// AcceptBatch drains up to len(fds) pending accepted connections from a
// listener in one call — the guest end of ServiceLib's spanned
// OpNewConn batches. It returns how many descriptors were written. A
// connection whose socket already died (reset before the drain) still
// occupies a slot; the caller sees its OnClose like any other.
func (g *GuestLib) AcceptBatch(lfd int32, fds []int32) int {
	s := g.sockets[lfd]
	if s == nil || s.kind != kindListener || s.accepts.Len() == 0 {
		return 0
	}
	n := 0
	for ; n < len(fds) && s.accepts.Len() > 0; n++ {
		fds[n] = *s.accepts.Front()
		s.accepts.Pop()
	}
	now := g.cfg.Clock.Now()
	for _, fd := range fds[:n] {
		if as := g.sockets[fd]; as != nil {
			g.latency.acceptWait.Observe(uint64(now.Sub(as.acceptedAt)))
		}
	}
	return n
}

// SetCallbacks replaces a socket's event hooks (used for accepted
// connections, which exist before the application sees them).
func (g *GuestLib) SetCallbacks(fd int32, cbs Callbacks) error {
	s := g.sockets[fd]
	if s == nil {
		return fmt.Errorf("guestlib: bad fd %d", fd)
	}
	s.cbs = cbs
	return nil
}

// Send copies data into the shared huge pages and queues send jobs,
// returning the number of bytes accepted. A short return means the shm
// credit or huge pages ran out; OnWritable fires when capacity returns.
// This is exactly §3.2's send path: "GuestLib intercepts the call and
// puts the data into the huge pages. Meanwhile it adds an nqe with a
// write operation to the VM job queue along with the data descriptor."
func (g *GuestLib) Send(fd int32, p []byte) int {
	s, err := g.stream(fd)
	if err != nil || s.state != stEstablished {
		return 0
	}
	chunkSize := s.pair.ChunkSize()
	total := 0
	for len(p) > 0 {
		if s.credit <= 0 {
			g.markStalled(s)
			g.stats.CreditStalls.Inc()
			break
		}
		n := min(min(chunkSize, len(p)), s.credit)
		chunk, ok := s.pair.Pages.Alloc()
		if !ok {
			g.markStalled(s)
			g.stats.CreditStalls.Inc()
			break
		}
		s.pair.Pages.Write(chunk, p[:n])
		g.stats.TxBytesCopied.Add(uint64(n))
		e := &nqe.Element{
			Op: nqe.OpSend, FD: fd,
			DataOff: chunk.Offset, DataLen: uint32(n),
		}
		if len(p) > n {
			e.Flags |= nqe.FlagMoreData
		}
		if !g.push(s.pair, s.shard, e) {
			s.pair.Pages.Free(chunk)
			g.markStalled(s)
			break
		}
		s.credit -= n
		total += n
		p = p[n:]
	}
	g.stats.BytesSent.Add(uint64(total))
	return total
}

// Recv drains received data into buf; eof reports a consumed FIN.
func (g *GuestLib) Recv(fd int32, buf []byte) (n int, eof bool) {
	s := g.sockets[fd]
	if s == nil {
		return 0, true
	}
	for n < len(buf) && s.recvQ.Len() > 0 {
		head := *s.recvQ.Front()
		src := s.pair.Pages.Bytes(head.chunk)[s.recvOff:head.size]
		m := copy(buf[n:], src)
		n += m
		s.recvOff += m
		if s.recvOff == head.size {
			s.pair.Pages.Free(head.chunk)
			s.recvQ.Pop()
			s.recvOff = 0
		}
	}
	if n > 0 {
		g.stats.RxBytesCopied.Add(uint64(n))
		g.stats.BytesReceived.Add(uint64(n))
		// Return receive credit so the NSM keeps reading (§3.2 recv()
		// "simply checks and copies new data in the VM receive queue").
		g.post(s.pair, s.shard, &nqe.Element{Op: nqe.OpRecv, FD: fd, Arg0: uint64(n)})
	}
	return n, s.eof && s.recvQ.Len() == 0
}

// ReadAvailable returns buffered receive bytes.
func (g *GuestLib) ReadAvailable(fd int32) int {
	s := g.sockets[fd]
	if s == nil {
		return 0
	}
	total := -s.recvOff
	for i := 0; i < s.recvQ.Len(); i++ {
		total += s.recvQ.At(i).size
	}
	return total
}

// SetSockOpt sets a socket option (§4.1 lists setsockopt among the
// intercepted calls). Options are the nqe.SockOpt* constants.
func (g *GuestLib) SetSockOpt(fd int32, opt, value uint64) error {
	s, err := g.open(fd)
	if err != nil {
		return err
	}
	g.pushWhenReady(s, &nqe.Element{Op: nqe.OpSetSockOpt, FD: fd, Arg0: opt, Arg1: value})
	return nil
}

// Close initiates shutdown; OnClose fires on completion. Closing after
// the peer's EOF is both legal and required to release the connection.
func (g *GuestLib) Close(fd int32) {
	s := g.sockets[fd]
	if s == nil || s.closeSent {
		return
	}
	s.closeSent = true
	s.closeStart = g.cfg.Clock.Now()
	// The application is done reading: return any unconsumed receive
	// chunks to the pool (and discard late arrivals in handleEvent).
	s.freeRecvQ()
	// A closing listener orphans accepted-but-undrained connections;
	// close them too so their NSM state unwinds instead of idling
	// forever behind a descriptor nobody holds.
	if s.kind == kindListener {
		for s.accepts.Len() > 0 {
			afd := *s.accepts.Front()
			s.accepts.Pop()
			g.Close(afd)
		}
	}
	g.pushWhenReady(s, &nqe.Element{Op: nqe.OpClose, FD: fd})
	// Both directions are already down (the peer's OpConnClosed came
	// first): nothing further will ever arrive for this socket, so it
	// recycles. (Before it is ready, deferred still holds the OpClose —
	// the struct must survive until the replay.) The release defers to
	// the executor: Close is often called from inside the OpConnClosed
	// delivery that announced the peer's close, and that handler still
	// has callbacks (OnClose) to run against this socket.
	if s.closedSeen && s.ready {
		g.cfg.Clock.AfterFrame(0, (*releaseClosed)(g), nil, uint64(uint32(fd)))
	}
}

// releaseClosed is the GuestLib as the handler of Close's deferred
// release, arg being the descriptor. Descriptors are never reused, so
// one the event handler already retired finds no socket.
type releaseClosed GuestLib

func (h *releaseClosed) HandleFrame(_ []byte, fd uint64) {
	g := (*GuestLib)(h)
	if s := g.sockets[int32(uint32(fd))]; s != nil && s.closeSent {
		g.releaseSocket(s)
	}
}

// open returns fd's socket if the application has not closed it. OpClose
// is the last job GuestLib posts for a descriptor (the CoreEngine retires
// the mapping on that promise), so every call that would post one checks
// here first.
func (g *GuestLib) open(fd int32) (*socket, error) {
	s := g.sockets[fd]
	if s == nil {
		return nil, fmt.Errorf("guestlib: bad fd %d", fd)
	}
	if s.closeSent {
		return nil, fmt.Errorf("guestlib: fd %d is closed", fd)
	}
	return s, nil
}

func (g *GuestLib) stream(fd int32) (*socket, error) {
	s, err := g.open(fd)
	if err != nil {
		return nil, err
	}
	if s.kind != kindStream {
		return nil, fmt.Errorf("guestlib: fd %d is not a stream socket", fd)
	}
	return s, nil
}

// pump drains one pair's VM completion and receive queues in batches
// (whole ring spans per pop, §3.2 "batched interrupts"). It runs on the
// clock executor when the CoreEngine kicks the VM side.
func (g *GuestLib) pump(pair *nkchan.Pair, shard int) {
	shard = pair.ShardIndex(shard)
	rings := &pair.Shards[shard]
	for {
		n := rings.VMCompletion.PopBatch(g.drain)
		if n == 0 {
			break
		}
		g.stats.Completions.Add(uint64(n))
		for i := range g.drain[:n] {
			g.handleCompletion(pair, &g.drain[i])
		}
	}
	for {
		n := rings.VMReceive.PopBatch(g.drain)
		if n == 0 {
			break
		}
		g.stats.Events.Add(uint64(n))
		for i := range g.drain[:n] {
			g.handleEvent(pair, shard, &g.drain[i])
		}
	}
	g.backlog.Drain()
	g.wakeStalled()
	// One amortized OnReady per poller covers every socket that became
	// ready in this batch — the wakeup coalescing the rpc experiment
	// measures.
	g.deliverWakeups()
}

// wakeStalled revisits write-stalled sockets in stall order once per
// pump, so freed queue slots and returned credit are shared instead of
// monopolized by whichever socket stalls last. The visit costs O(ready):
// each socket carries its membership flag, so marking is an append and
// waking never rescans sockets that already left the queue.
func (g *GuestLib) wakeStalled() {
	if len(g.stalled) == 0 {
		return
	}
	// Marks made during the visit land in the spare buffer. A nested
	// visit would find no spare and allocate instead of sharing one.
	pending := g.stalled
	g.stalled, g.spare = g.spare[:0], nil
	for _, fd := range pending {
		s := g.sockets[fd]
		if s == nil {
			continue
		}
		s.inStalled = false
		if !s.wantWrite {
			continue
		}
		if s.credit <= 0 {
			g.markStalled(s) // still out of credit; wait for completions
			continue
		}
		s.wantWrite = false
		if s.poller != nil {
			// Polled sockets get coalesced writable readiness instead of
			// a per-socket callback.
			g.pollerNotify(s, nqe.ReadyWritable)
			continue
		}
		if s.cbs.OnWritable != nil {
			s.cbs.OnWritable()
		}
	}
	g.spare = pending[:0]
}

func (g *GuestLib) markStalled(s *socket) {
	s.wantWrite = true
	if s.inStalled {
		return
	}
	s.inStalled = true
	g.stalled = append(g.stalled, s.fd)
}

// A Poller is the guest's epoll-style readiness surface (DESIGN.md
// §11): sockets Add to it, GuestLib derives their readiness from the
// events the receive rings already carry (OpNewData, OpNewConn,
// OpConnClosed) and from returning send credit, and the application
// drains it with Wait. The NSM knows nothing of pollers. Where the
// per-event callback path costs one OnReadable per data event, a poller
// costs one OnReady per delivery batch — 10k sparse connections wake the
// application once, not 10k times.
type Poller struct {
	g *GuestLib
	// OnReady fires at most once per delivery batch when at least one
	// polled socket has undrained readiness. Typically it drains with
	// Wait (re-entering GuestLib is safe — wakeups deliver after the
	// rings are drained).
	OnReady func()

	ready       fifo.Ring[int32] // fds with a non-zero pollMask, transition order
	wakePending bool
}

// PollEvent is one ready socket reported by Wait.
type PollEvent struct {
	FD     int32
	Events uint32 // ORed nqe.Ready* masks since the last drain
}

// NewPoller creates a poller. onReady may be nil for pure Wait-loop use.
func (g *GuestLib) NewPoller(onReady func()) *Poller {
	p := &Poller{g: g, OnReady: onReady}
	g.pollers = append(g.pollers, p)
	return p
}

// Add registers a socket for coalesced readiness. It posts no job: the
// attachment is GuestLib's alone. Per-event OnReadable/OnAcceptable/
// OnWritable callbacks stop firing for it; OnEstablished and OnClose
// still do (lifecycle, not readiness). State the socket already holds —
// buffered data, pending accepts, a seen EOF — replays immediately so a
// late-attached poller never sleeps through it.
func (p *Poller) Add(fd int32) error {
	g := p.g
	s, err := g.open(fd)
	if err != nil {
		return err
	}
	if s.poller != nil && s.poller != p {
		return fmt.Errorf("guestlib: fd %d already belongs to another poller", fd)
	}
	s.poller = p
	var mask uint32
	if s.recvQ.Len() > 0 || s.eof {
		mask |= nqe.ReadyReadable
	}
	if s.accepts.Len() > 0 {
		mask |= nqe.ReadyAcceptable
	}
	if s.state == stClosed {
		mask |= nqe.ReadyClosed
	}
	if mask != 0 {
		g.pollerNotify(s, mask)
		// Deliver on the executor, not synchronously under the caller.
		g.cfg.Clock.AfterFunc(0, g.deliverWakeups)
	}
	return nil
}

// Remove deregisters a socket, posting no job; per-event callbacks
// resume.
func (p *Poller) Remove(fd int32) error {
	g := p.g
	s, err := g.open(fd)
	if err != nil {
		return err
	}
	if s.poller != p {
		return fmt.Errorf("guestlib: fd %d is not on this poller", fd)
	}
	s.poller = nil
	s.pollMask = 0 // a stale ready-list entry now skips in Wait
	return nil
}

// Wait drains ready sockets into events without blocking, returning how
// many it wrote. Sockets keep accumulating masks between drains; a
// socket reported once does not reappear until a new transition.
func (p *Poller) Wait(events []PollEvent) int {
	n := 0
	for p.ready.Len() > 0 && n < len(events) {
		fd := *p.ready.Front()
		p.ready.Pop()
		s := p.g.sockets[fd]
		if s == nil || s.poller != p || s.pollMask == 0 {
			continue // released, removed, or already drained
		}
		events[n] = PollEvent{FD: fd, Events: s.pollMask}
		s.pollMask = 0
		n++
	}
	return n
}

// Close detaches the poller from its sockets and the GuestLib.
func (p *Poller) Close() {
	g := p.g
	for _, s := range g.sockets {
		if s.poller == p {
			s.poller = nil
			s.pollMask = 0
		}
	}
	for i, q := range g.pollers {
		if q == p {
			g.pollers = append(g.pollers[:i], g.pollers[i+1:]...)
			break
		}
	}
	p.ready.Clear()
	p.wakePending = false
}

// pollerNotify records a readiness transition on the socket's poller.
// First transition since the last drain appends to the ready list;
// repeats just OR into the mask. The wakeup itself is deferred to
// deliverWakeups so a batch of transitions costs one OnReady.
func (g *GuestLib) pollerNotify(s *socket, mask uint32) {
	p := s.poller
	if p == nil || mask == 0 {
		return
	}
	g.stats.PollerEvents.Inc()
	if s.pollMask == 0 {
		p.ready.Push(s.fd)
	}
	s.pollMask |= mask
	p.wakePending = true
}

// deliverWakeups fires each poller's OnReady at most once for
// everything that became ready since the last delivery — the amortized
// wakeup the rpc experiment measures against per-event callbacks.
func (g *GuestLib) deliverWakeups() {
	for _, p := range g.pollers {
		if !p.wakePending {
			continue
		}
		p.wakePending = false
		if p.ready.Len() == 0 || p.OnReady == nil {
			continue
		}
		g.stats.PollerWakeups.Inc()
		p.OnReady()
	}
}

func (g *GuestLib) handleCompletion(pair *nkchan.Pair, e *nqe.Element) {
	s := g.sockets[e.FD]
	if s == nil {
		return
	}
	switch e.Op {
	case nqe.OpSend:
		// The NSM consumed a chunk: credit returns.
		s.credit += int(e.DataLen)
	case nqe.OpSocket:
		if e.Status != nqe.StatusOK {
			// The CoreEngine could not install the mapping (the NSM
			// crashed or rejected the socket): dead on arrival. Deferred
			// control operations are dropped; the application learns
			// through the usual terminal callbacks.
			s.deferred = s.deferred[:0]
			wasConnecting := s.state == stConnecting
			wasClosed := s.state == stClosed
			s.state = stClosed
			s.eof = true
			s.closeErr = e.Status.Err()
			if wasConnecting && s.cbs.OnEstablished != nil {
				s.cbs.OnEstablished(s.closeErr)
			}
			if !wasClosed && s.cbs.OnClose != nil {
				s.cbs.OnClose(s.closeErr)
			}
			return
		}
		g.latency.socketRTT.Observe(uint64(g.cfg.Clock.Now().Sub(s.sockStart)))
		// The CoreEngine installed the fd↔cID mapping: deferred control
		// operations may flow.
		s.ready = true
		for i := range s.deferred {
			g.post(s.pair, s.shard, &s.deferred[i])
		}
		s.deferred = s.deferred[:0]
	case nqe.OpListen, nqe.OpRecv, nqe.OpClose, nqe.OpSetSockOpt:
		// Status-only completions.
		if e.Status != nqe.StatusOK && s.cbs.OnClose != nil && s.state != stClosed {
			s.state = stClosed
			s.cbs.OnClose(e.Status.Err())
		}
	}
}

func (g *GuestLib) handleEvent(pair *nkchan.Pair, shard int, e *nqe.Element) {
	// A traced receive-path element completes its span on delivery to
	// the guest — the mirror of the send path's stack-TX end.
	g.cfg.Tracer.End(e.Trace, "guestlib.deliver")
	s := g.sockets[e.FD]
	switch e.Op {
	case nqe.OpEstablished:
		if s == nil {
			return
		}
		g.latency.connectRTT.Observe(uint64(g.cfg.Clock.Now().Sub(s.connectStart)))
		if e.Status == nqe.StatusOK {
			s.state = stEstablished
		} else {
			s.state = stClosed
		}
		if s.cbs.OnEstablished != nil {
			s.cbs.OnEstablished(e.Status.Err())
		}
	case nqe.OpNewConn:
		// CoreEngine already assigned the new connection's fd (§3.2:
		// "CoreEngine generates a new socket fd on behalf of the VM for
		// the new flow"); it arrives in Arg1.
		newFD := int32(e.Arg1)
		// The accepted socket inherits the shard its OpNewConn rode in
		// on — the flow's hash shard, where the engine installed its
		// mapping. Every element it ever sends stays there.
		as := g.newSocket()
		as.fd, as.kind, as.state = newFD, kindStream, stEstablished
		as.credit, as.ready, as.pair, as.shard = g.cfg.SendCredit, true, pair, shard
		as.acceptedAt = g.cfg.Clock.Now()
		g.sockets[newFD] = as
		if s == nil || s.kind != kindListener || s.closeSent {
			// The listener closed while this accept was in flight: its
			// Close swept the orphans already, and nobody will ever
			// Accept this one. Close it, or the NSM holds it forever.
			g.Close(newFD)
			return
		}
		s.accepts.Push(newFD)
		if s.poller != nil {
			// A polled listener coalesces: one acceptable bit, however
			// many connections landed, drained via AcceptBatch.
			g.pollerNotify(s, nqe.ReadyAcceptable)
		} else if s.accepts.Len() == 1 && s.cbs.OnAcceptable != nil {
			s.cbs.OnAcceptable()
		}
	case nqe.OpNewData:
		if s == nil || s.closeSent {
			// No socket to own the chunk (stale fd, or the application
			// already closed): return it to the pool instead of leaking.
			pair.Pages.Free(shmChunk(e.DataOff))
			return
		}
		// The socket keeps the chunk: Recv copies straight from it into
		// the application buffer, eliding the intermediate copy.
		s.recvQ.Push(recvSeg{chunk: shmChunk(e.DataOff), size: int(e.DataLen)})
		if s.poller != nil {
			g.pollerNotify(s, nqe.ReadyReadable)
		} else if s.cbs.OnReadable != nil {
			s.cbs.OnReadable()
		}
	case nqe.OpConnClosed:
		if s == nil {
			return
		}
		if e.Status != nqe.StatusOK {
			// Abortive close (reset, timeout, module crash): undelivered
			// receive data is discarded, BSD-style — return the chunks.
			s.freeRecvQ()
		}
		s.eof = true
		s.closedSeen = true
		wasClosed := s.state == stClosed
		s.state = stClosed
		s.closeErr = e.Status.Err()
		if s.poller != nil {
			g.pollerNotify(s, nqe.ReadyClosed|nqe.ReadyReadable)
		} else if s.cbs.OnReadable != nil {
			s.cbs.OnReadable() // EOF is readable
		}
		if !wasClosed && s.cbs.OnClose != nil {
			s.cbs.OnClose(s.closeErr)
		}
		// The guest had already closed its side: the handshake is
		// complete and the descriptor retires. (s.closeSent re-read
		// because an OnClose handler may have called Close itself,
		// releasing the socket already — the zeroed struct reads false.)
		if s.closeSent {
			g.latency.closeRTT.Observe(uint64(g.cfg.Clock.Now().Sub(s.closeStart)))
			g.releaseSocket(s)
		}
	}
}
