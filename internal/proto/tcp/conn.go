package tcp

import (
	"errors"
	"fmt"
	"time"

	"netkernel/internal/framepool"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
	"netkernel/internal/tcpcc"
	"netkernel/internal/telemetry"
)

// State is a TCP connection state (RFC 793 §3.2).
type State int

// Connection states.
const (
	StateClosed State = iota
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

func (s State) String() string {
	return [...]string{
		"closed", "syn-sent", "syn-rcvd", "established", "fin-wait-1",
		"fin-wait-2", "close-wait", "closing", "last-ack", "time-wait",
	}[s]
}

// AddrPort is one endpoint of a connection.
type AddrPort struct {
	Addr ipv4.Addr
	Port uint16
}

func (a AddrPort) String() string { return fmt.Sprintf("%v:%d", a.Addr, a.Port) }

// OutputFunc transmits one segment. The connection fills in ports,
// sequence numbers and options; the caller (the stack) wraps it in
// IP + Ethernet and hands it to the NIC. ecnCapable asks for ECT(0)
// marking on the IP header.
//
// h is the connection's scratch header and payload a view into its send
// buffer: both are valid only until Output returns. An Output that
// keeps the segment copies the header by value (a Header holds no
// pointers, so the copy is deep) and the payload bytes.
type OutputFunc func(h *Header, payload []byte, ecnCapable bool)

// Config parameterizes a connection.
type Config struct {
	Clock sim.Clock
	RNG   *sim.RNG

	Local, Remote AddrPort

	// MSS is the maximum segment payload. Defaults to 1460.
	MSS int
	// SendBufSize and RecvBufSize bound the buffers. Default 1 MiB.
	SendBufSize, RecvBufSize int
	// CC is the connection's congestion control; required.
	CC tcpcc.Algorithm
	// MinRTO floors the retransmission timeout (default 200 ms, like
	// Linux; benchmarks on microsecond-RTT fabrics lower it).
	MinRTO time.Duration
	// MSL is the maximum segment lifetime; TIME_WAIT lasts 2·MSL
	// (default 1 s, scaled down from the traditional 2 min for
	// simulation practicality).
	MSL time.Duration
	// TimeWaitLane, when non-nil, is where the TIME_WAIT timer waits:
	// the owning stack's lane, shared by all its connections because
	// they share one MSL. Nil schedules it on Clock.
	TimeWaitLane *sim.Lane
	// ISS, when non-nil, overrides the initial send sequence number.
	// The port recycler uses it to start a connection that reuses a
	// TIME_WAIT port pair beyond the predecessor's final sequence, so
	// the peer's lingering state accepts the new SYN (RFC 6191).
	ISS *uint32

	// Output transmits segments; required.
	Output OutputFunc

	// OnEstablished fires once when the handshake completes or fails.
	OnEstablished func(err error)
	// OnReadable fires when data (or EOF) becomes available.
	OnReadable func()
	// OnWritable fires when send-buffer space frees after Write
	// returned short.
	OnWritable func()
	// OnClose fires once when the connection fully terminates; err is
	// nil for a clean close.
	OnClose func(err error)

	// CopiedTx and CopiedRx, when non-nil, aggregate the connection's
	// payload memcpy counters into a stack-wide ledger that survives
	// connection teardown. The copy-budget accounting (DESIGN.md §8)
	// reads them; they have no effect on the datapath. Atomic because
	// the ledger is read by management-plane snapshots on other
	// goroutines while connections run.
	CopiedTx, CopiedRx *telemetry.Counter
	// Retrans, when non-nil, aggregates retransmitted segments into the
	// same kind of stack-wide cumulative ledger.
	Retrans *telemetry.Counter
}

func (c *Config) fillDefaults() {
	if c.MSS <= 0 {
		c.MSS = 1460
	}
	if c.SendBufSize <= 0 {
		c.SendBufSize = 1 << 20
	}
	if c.RecvBufSize <= 0 {
		c.RecvBufSize = 1 << 20
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 200 * time.Millisecond
	}
	if c.MSL <= 0 {
		c.MSL = time.Second
	}
}

// Stats counts a connection's activity.
type Stats struct {
	BytesSent    uint64 // payload bytes passed to Output (incl. rexmit)
	BytesRcvd    uint64 // in-order payload bytes delivered to the app side
	BytesAcked   uint64 // payload bytes cumulatively acknowledged
	SegsSent     uint64
	SegsRcvd     uint64
	Retransmits  uint64
	FastRexmits  uint64
	RTOs         uint64
	DupAcks      uint64
	ECNEchoes    uint64
	SRTT         time.Duration
	MinRTT       time.Duration
	DeliveryRate float64 // latest bytes/sec estimate

	// TxBytesCopied and RxBytesCopied count payload bytes this layer
	// memcpy'd on the send and receive paths. The zero-copy datapath
	// keeps both near zero on streaming transfers: WriteOwned spans go
	// out as views, and an installed receive sink bypasses rcvBuf.
	TxBytesCopied uint64
	RxBytesCopied uint64
}

// segMeta tracks one transmitted segment for retransmission and rate
// sampling.
type segMeta struct {
	seq             uint32
	length          int
	sentAt          sim.Time
	deliveredAtSend uint64
	// deliveredTimeAtSend is when the delivered counter reached
	// deliveredAtSend; rate samples span from there to the ack,
	// which keeps burst cumulative acks (after loss recovery) from
	// inflating the estimate.
	deliveredTimeAtSend sim.Time
	appLimited          bool
	retransmitted       bool
	sacked              bool
	fin                 bool
}

// oooSeg is one buffered out-of-order segment. data is a pool frame
// (framepool) the connection releases when the segment is merged,
// dropped as a duplicate, or torn down. push keeps the sender's PSH, so
// the segment still ends its message when a filled hole merges it.
type oooSeg struct {
	seq  uint32
	data []byte
	fin  bool
	push bool
}

// Errors a connection ends with, reported to OnEstablished and OnClose.
// A connection that gives up retransmitting ends with an error whose
// Timeout method reports true.
var (
	ErrReset                   = errors.New("tcp: connection reset by peer")
	ErrRefused                 = errors.New("tcp: connection refused")
	ErrAborted                 = errors.New("tcp: connection aborted")
	ErrClosedBeforeEstablished = errors.New("tcp: closed before establishment")
)

// An Owner hosts connections: the stack whose demux table routes their
// segments.
type Owner interface {
	// ConnClosed runs once when c ends (teardown or Detach), before the
	// application's OnClose.
	ConnClosed(c *Conn)
}

// Conn is one TCP connection. All methods must be invoked on the
// configured Clock's executor; callbacks are delivered there too.
//
// A Conn that has ended (State reports StateClosed) may be rebuilt in
// place with Dial, Passive or Restore once nothing else will touch it.
// Everything one connection sets lives in the embedded incarnation,
// which a rebuild zeroes; what Conn holds besides — buffer, scoreboard
// and reorder-queue storage, the timers' callback bindings — outlives
// it, so an owner that recycles connections allocates none of it again
// (DESIGN.md §16).
type Conn struct {
	incarnation

	sndBuf   sendBuffer // bytes in [sndUna+…, ) not yet acknowledged
	rcvBuf   byteRing
	inflight scoreboard
	ooo      []oooSeg // sorted by seq

	rtoTimer, delackTimer, paceTimer, persistTimer, timeWaitTimer sim.Timer
	// timersOn and timeWaitOn are what the timers are bound to: a
	// rebuild on the same clock and TIME_WAIT lane keeps the bindings.
	timersOn   sim.Clock
	timeWaitOn sim.AfterFuncer
	// gen counts rebuilds, so an event scheduled for one incarnation can
	// tell when it runs on a later one.
	gen uint64

	// txHdr is the header of the segment being transmitted, reused for
	// every segment: see OutputFunc for how long it stays valid.
	txHdr Header
	// ackSample is the sample handed to the congestion control on each
	// new ACK; it lives here because the call through the Algorithm
	// interface would otherwise move a fresh one to the heap every time.
	ackSample tcpcc.AckSample
}

// incarnation is the state of one connection's life: the tcb, which a
// migration snapshot carries whole, and the environment the connection
// runs in, which whoever builds or restores it supplies afresh
// (TestIncarnationFieldsAreStateOrEnvironment gives each field's reason).
type incarnation struct {
	tcb

	cfg       Config
	cc        tcpcc.Algorithm
	owner     Owner
	sink      func(p []byte, push bool) int
	oooBytes  int // payload held in the reorder queue
	wantWrite bool
	closed    bool

	// onEstablishedFired guards the one-shot handshake callback.
	onEstablishedFired bool
}

// tcb is the connection's state block (RFC 793's transmission control
// block): plain data holding everything the connection has negotiated
// and learned, so that a snapshot is one copy of it. Buffers, the
// scoreboard and the reorder queue live beside it in Conn.
type tcb struct {
	state State

	// Send sequence state (RFC 793 names).
	iss    uint32
	sndUna uint32
	sndNxt uint32
	sndMax uint32 // highest sequence ever sent (survives RTO rewind)
	sndWnd int    // peer's advertised window, scaled to bytes

	finQueued bool
	finSent   bool
	finSeq    uint32

	peerWScale uint8
	ourWScale  uint8
	sackOK     bool

	// Retransmission machinery.
	rto     time.Duration
	srtt    time.Duration
	rttvar  time.Duration
	backoff int

	// Recovery (NewReno + SACK-lite).
	dupAcks    int
	inRecovery bool
	recover    uint32

	// Rate sampling (for BBR).
	delivered   uint64
	deliveredAt sim.Time // when the delivered counter last advanced

	// Receive sequence state.
	irs     uint32
	rcvNxt  uint32
	finRcvd bool

	// Acking.
	lastOOOSeq   uint32 // seq of the most recent out-of-order arrival
	sackRotate   uint32 // rotates secondary SACK blocks across runs
	unackedSegs  int
	lastAdvWnd   int
	lastDataCE   bool
	ecnEnabled   bool
	ecnReactedAt sim.Time

	// Pacing and coalescing.
	paceNext sim.Time
	nagle    bool // RFC 896; off until SetNagle

	// timeWaitDeadline is when the TIME_WAIT timer fires; a migrated
	// connection keeps it instead of restarting 2·MSL.
	timeWaitDeadline sim.Time

	// ctrl.MSS is the negotiated MSS (Config.MSS, kept in step).
	ctrl  tcpcc.Control
	stats Stats
}

// check reports the first way the block, with the scoreboard entries
// inflight, breaks what every live connection satisfies. Restore refuses
// a snapshot that fails it and the tests assert it after every segment;
// Input does not run it, since it would cost host time per segment.
func (b *tcb) check(inflight []segMeta) error {
	ourFIN := b.state == StateFinWait1 || b.state == StateFinWait2 || b.state >= StateClosing
	peerFIN := b.state >= StateCloseWait
	switch {
	case b.state <= StateClosed || b.state > StateTimeWait:
		return fmt.Errorf("state %d is not a live connection's", int(b.state))
	case seqGT(b.sndUna, b.sndNxt) || seqGT(b.sndNxt, b.sndMax):
		return fmt.Errorf("send sequence out of order: una %d, nxt %d, max %d", b.sndUna, b.sndNxt, b.sndMax)
	case b.peerWScale > 14 || b.ourWScale > 14:
		return fmt.Errorf("window scale %d/%d above 14", b.peerWScale, b.ourWScale)
	case b.rto <= 0 || b.rto > maxRTO:
		return fmt.Errorf("RTO %v outside (0, %v]", b.rto, maxRTO)
	case b.finSent != ourFIN || b.finSent && !b.finQueued || b.finRcvd != peerFIN:
		return fmt.Errorf("FIN queued=%v sent=%v received=%v in %v", b.finQueued, b.finSent, b.finRcvd, b.state)
	}
	// A cumulative ACK can split the oldest entry, so an entry need only
	// end inside (sndUna, sndMax].
	for _, m := range inflight {
		span := m.length
		if m.fin {
			span++
		}
		end := m.seq + uint32(span)
		if m.length < 0 || seqDiff(end, m.seq) != span || !seqLT(b.sndUna, end) || seqGT(end, b.sndMax) {
			return fmt.Errorf("scoreboard entry [%d, %d) does not end in (una %d, max %d]", m.seq, end, b.sndUna, b.sndMax)
		}
	}
	return nil
}

// rebuild readies c — new, or ended — for a connection under cfg: the
// shared part of Dial, Passive and Restore.
func (c *Conn) rebuild(cfg Config) {
	cfg.fillDefaults()
	if cfg.Clock == nil || cfg.Output == nil || cfg.CC == nil {
		panic("tcp: Config requires Clock, Output, and CC")
	}
	if c.cfg.Clock != nil && !c.closed {
		panic("tcp: rebuilding a connection that has not ended")
	}
	c.incarnation = incarnation{tcb: tcb{rto: time.Second}, cfg: cfg, cc: cfg.CC}
	c.gen++
	c.sndBuf.reset(cfg.SendBufSize)
	c.rcvBuf.reset(cfg.RecvBufSize)
	c.inflight.reset()
	if c.timersOn != cfg.Clock {
		c.timersOn = cfg.Clock
		c.rtoTimer.Init(cfg.Clock, c.onRTO)
		c.delackTimer.Init(cfg.Clock, c.onDelack)
		c.paceTimer.Init(cfg.Clock, c.onPace)
		c.persistTimer.Init(cfg.Clock, c.onPersist)
	}
	var tw sim.AfterFuncer = cfg.Clock
	if cfg.TimeWaitLane != nil {
		tw = cfg.TimeWaitLane
	}
	if c.timeWaitOn != tw {
		c.timeWaitOn = tw
		c.timeWaitTimer.Init(tw, c.onTimeWait)
	}
	if c.rto < cfg.MinRTO {
		c.rto = cfg.MinRTO
	}
	// Window scale large enough to advertise the whole receive buffer.
	for ws := uint8(0); ws <= 14; ws++ {
		if cfg.RecvBufSize>>ws <= 0xffff {
			c.ourWScale = ws
			break
		}
		c.ourWScale = 14
	}
	c.ctrl.MSS = cfg.MSS
	c.cc.Init(&c.ctrl, cfg.Clock.Now().Duration())
	c.stats.MinRTT = -1
	switch {
	case cfg.ISS != nil:
		c.iss = *cfg.ISS
	case cfg.RNG != nil:
		c.iss = uint32(cfg.RNG.Uint64())
	default:
		c.iss = uint32(cfg.Clock.Now())
	}
}

// Dial opens an active connection: it transmits a SYN immediately.
func Dial(cfg Config) *Conn {
	c := new(Conn)
	c.Dial(cfg)
	return c
}

// Dial rebuilds c, new or ended, as an active connection under cfg and
// transmits its SYN.
func (c *Conn) Dial(cfg Config) {
	c.rebuild(cfg)
	c.state = StateSynSent
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.sndMax = c.sndNxt
	c.sendSYN(false)
	c.armRTO()
}

// Passive rebuilds c, new or ended, as a passive connection answering
// syn under cfg and transmits its SYN-ACK. ecnRequested reports whether
// the SYN asked for ECN (RFC 3168 ECE+CWR); it is honored only when the
// connection's congestion control wants ECN.
func (c *Conn) Passive(cfg Config, syn *Header, ecnRequested bool) {
	c.rebuild(cfg)
	c.state = StateSynRcvd
	c.irs = syn.Seq
	c.rcvNxt = syn.Seq + 1
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.sndMax = c.sndNxt
	c.applySynOptions(&syn.Opts)
	c.sndWnd = int(syn.Window) // SYN windows are unscaled
	c.ecnEnabled = ecnRequested && c.cc.NeedsECN()
	c.sendSYN(true)
	c.armRTO()
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Stats returns a copy of the connection counters.
func (c *Conn) Stats() Stats { return c.stats }

// LocalAddr returns the local endpoint.
func (c *Conn) LocalAddr() AddrPort { return c.cfg.Local }

// RemoteAddr returns the remote endpoint.
func (c *Conn) RemoteAddr() AddrPort { return c.cfg.Remote }

// CongestionControl exposes the connection's CC instance (monitoring).
func (c *Conn) CongestionControl() tcpcc.Algorithm { return c.cc }

// SetCallbacks installs application callbacks after the fact — the
// accept path needs this, since a passive connection exists before the
// application sees it.
func (c *Conn) SetCallbacks(onReadable, onWritable func(), onClose func(error)) {
	c.cfg.OnReadable = onReadable
	c.cfg.OnWritable = onWritable
	c.cfg.OnClose = onClose
}

// CWnd returns the current congestion window in bytes.
func (c *Conn) CWnd() int { return c.ctrl.CWnd }

func (c *Conn) applySynOptions(o *Options) {
	if o.MSS != 0 && int(o.MSS) < c.cfg.MSS {
		c.cfg.MSS = int(o.MSS)
		c.ctrl.MSS = c.cfg.MSS
	}
	if o.WScaleOK {
		c.peerWScale = min(o.WScale, 14) // RFC 7323 §2.3
	} else {
		c.ourWScale = 0 // both sides must support scaling
	}
	c.sackOK = o.SACKPermitted
}

func (c *Conn) sendSYN(synAck bool) {
	h := c.header(FlagSYN, c.iss)
	h.Window = uint16(min(c.rcvBuf.Free(), 0xffff))
	h.Opts = Options{
		MSS:           uint16(c.cfg.MSS),
		WScale:        c.ourWScale,
		WScaleOK:      true,
		SACKPermitted: true,
	}
	if synAck {
		h.Flags |= FlagACK
		h.Ack = c.rcvNxt
		if c.ecnEnabled {
			h.Flags |= FlagECE
		}
	} else if c.cc.NeedsECN() {
		// RFC 3168 §6.1.1: ECN-setup SYN carries ECE+CWR.
		h.Flags |= FlagECE | FlagCWR
	}
	c.transmit(h, nil, false)
}

// Write appends data to the send buffer and starts transmission,
// returning the number of bytes accepted (possibly 0 when the buffer is
// full; OnWritable will fire when space frees).
func (c *Conn) Write(p []byte) int {
	if c.closed || c.finQueued || c.state == StateClosed {
		return 0
	}
	n := c.sndBuf.Write(p)
	c.countCopyTx(n)
	if n < len(p) {
		c.wantWrite = true
	}
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySend()
	}
	return n
}

// WriteOwned appends a caller-owned span to the send buffer without
// copying. Acceptance is all-or-nothing: on true the connection owns
// the span and will call rel.Release(token) exactly once — when the
// last covering byte is cumulatively ACKed, or on teardown; on false
// ownership stays with the caller (rel is not called) and OnWritable
// will signal when buffer space frees. Segments, including
// retransmissions, read the span in place, so the release genuinely
// marks the end of its retransmission lifetime (DESIGN.md §8). rel may
// be nil.
func (c *Conn) WriteOwned(data []byte, rel Releaser, token uint64) bool {
	if c.closed || c.finQueued || c.state == StateClosed {
		return false
	}
	if !c.sndBuf.WriteOwned(data, rel, token) {
		c.wantWrite = true
		return false
	}
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.trySend()
	}
	return true
}

// WriteBufferFree returns the free space in the send buffer.
func (c *Conn) WriteBufferFree() int { return c.sndBuf.Free() }

// WriteBufferCap returns the send buffer's total capacity.
func (c *Conn) WriteBufferCap() int { return c.sndBuf.Cap() }

// Read drains up to len(p) bytes of in-order received data. eof turns
// true once the peer's FIN is consumed and the buffer is empty.
func (c *Conn) Read(p []byte) (n int, eof bool) {
	n = c.rcvBuf.Read(p)
	if n > 0 {
		c.countCopyRx(n)
		c.maybeSendWindowUpdate()
	}
	return n, c.finRcvd && c.rcvBuf.Empty()
}

// SetPushSink installs a direct delivery path: in-order payload
// arriving while rcvBuf is empty is offered to fn, which returns the
// bytes it consumed. Consumed bytes never touch rcvBuf (the receive-side
// copy is elided); any remainder falls back into rcvBuf, whose fill
// closes the advertised window — so a sink that refuses (e.g. because
// the shm receive window is exhausted) degrades into ordinary buffered
// flow control rather than losing data. push reports that p ends a
// segment the sender marked PSH: no more data follows it for now, so a
// sink that batches should hand its batch on. Pass nil to uninstall.
func (c *Conn) SetPushSink(fn func(p []byte, push bool) int) { c.sink = fn }

// SetReceiveSink is SetPushSink for a sink that does not batch and so
// has no use for push boundaries.
func (c *Conn) SetReceiveSink(fn func(p []byte) int) {
	if fn == nil {
		c.sink = nil
		return
	}
	c.sink = func(p []byte, _ bool) int { return fn(p) }
}

// ReadAvailable returns the bytes ready for Read.
func (c *Conn) ReadAvailable() int { return c.rcvBuf.Len() }

// Close starts a graceful shutdown: remaining buffered data is sent,
// then a FIN.
func (c *Conn) Close() {
	if c.closed || c.finQueued {
		return
	}
	switch c.state {
	case StateSynSent:
		c.teardown(nil)
		return
	case StateEstablished, StateSynRcvd, StateCloseWait:
		c.finQueued = true
		c.trySend()
	default:
	}
}

// Abort resets the connection immediately.
func (c *Conn) Abort() {
	if c.closed {
		return
	}
	if c.state != StateClosed && c.state != StateTimeWait {
		h := c.header(FlagRST|FlagACK, c.sndNxt)
		h.Ack = c.rcvNxt
		c.transmit(h, nil, false)
	}
	c.teardown(ErrAborted)
}

// Kill tears the connection down immediately and silently: no RST, no
// FIN, no further transmission of any kind. It models the process (or
// whole stack) hosting the connection dying; the peer discovers the
// death through its own timers or the successor stack's RSTs.
func (c *Conn) Kill(err error) {
	c.teardown(err)
}

// teardown finalizes the connection and stops every timer.
func (c *Conn) teardown(err error) {
	if c.closed {
		return
	}
	c.stop()
	if !c.onEstablishedFired && c.cfg.OnEstablished != nil {
		c.onEstablishedFired = true
		e := err
		if e == nil {
			e = ErrClosedBeforeEstablished
		}
		c.cfg.OnEstablished(e)
	}
	if c.owner != nil {
		c.owner.ConnClosed(c)
	}
	if c.cfg.OnClose != nil {
		c.cfg.OnClose(err)
	}
}

// stop ends the connection's hold on time and memory: it marks the
// connection closed, stops every timer, and hands back what the buffers
// borrowed — the send spans' huge-page chunks to their lender, the
// reorder queue's frames to the pool.
func (c *Conn) stop() {
	c.closed = true
	c.state = StateClosed
	for _, t := range c.timers() {
		t.Stop()
	}
	c.sndBuf.ReleaseAll()
	for i := range c.ooo {
		framepool.Put(c.ooo[i].data)
	}
	clear(c.ooo)
	c.ooo = c.ooo[:0]
	c.oooBytes = 0
}

func (c *Conn) timers() [5]*sim.Timer {
	return [...]*sim.Timer{&c.rtoTimer, &c.delackTimer, &c.paceTimer, &c.persistTimer, &c.timeWaitTimer}
}

// SetNagle toggles RFC 896 coalescing at runtime (setsockopt
// TCP_NODELAY, inverted).
func (c *Conn) SetNagle(on bool) { c.nagle = on }

// NagleEnabled reports whether RFC 896 coalescing is active.
func (c *Conn) NagleEnabled() bool { return c.nagle }

// SetOwner registers the connection's owner, whose ConnClosed runs once
// on final teardown, before the application's OnClose. The owning stack
// uses it to deregister the connection from its demux table;
// SetCallbacks does not disturb it.
func (c *Conn) SetOwner(o Owner) { c.owner = o }

// Owner returns what SetOwner registered.
func (c *Conn) Owner() Owner { return c.owner }

func (c *Conn) establish() {
	c.state = StateEstablished
	if !c.onEstablishedFired {
		c.onEstablishedFired = true
		if c.cfg.OnEstablished != nil {
			c.cfg.OnEstablished(nil)
		}
	}
	c.trySend()
}

// reset handles an inbound RST.
func (c *Conn) reset() {
	err := ErrReset
	if c.state == StateSynSent {
		err = ErrRefused
	}
	c.teardown(err)
}

// Input processes one inbound segment. ceMarked reports an IP-level
// ECN congestion-experienced codepoint.
func (c *Conn) Input(h *Header, payload []byte, ceMarked bool) {
	if c.closed {
		return
	}
	c.stats.SegsRcvd++

	if h.Flags&FlagRST != 0 {
		// RFC 5961-lite: only accept an in-window RST.
		if c.state == StateSynSent || (seqGEQ(h.Seq, c.rcvNxt) && seqLT(h.Seq, c.rcvNxt+uint32(max(c.rcvBuf.Free(), 1)))) {
			c.reset()
		}
		return
	}

	switch c.state {
	case StateSynSent:
		c.inputSynSent(h)
		return
	case StateSynRcvd:
		if h.Flags&FlagSYN != 0 { // retransmitted SYN: re-ack
			c.sendSYN(true)
			return
		}
		// A segment without ACK is dropped (RFC 9293 §3.10.7.4): a FIN
		// taken here would establish with the peer's FIN already counted.
		if h.Flags&FlagACK == 0 || h.Ack != c.sndNxt {
			return // no ack, or a stale one
		}
		c.sndUna = h.Ack
		c.inflight.ackUpTo(h.Ack)
		c.sndWnd = int(h.Window) << c.peerWScale
		// The SYN-ACK is acknowledged: its retransmission timer goes, as
		// in inputSynSent, or a connection that only receives would fire
		// it as a spurious RTO on the established connection.
		c.stopRTO()
		c.establish()
		// Fall through to normal processing for any payload.
	case StateTimeWait:
		// Sequence validation on port reuse (RFC 6191 flavour): a fresh
		// SYN whose ISN lies beyond everything this incarnation saw is a
		// genuine new connection from a recycled port pair, not a
		// delayed duplicate — tear the wait down so the listener can
		// serve it. A SYN at or below rcvNxt stays ignored: accepting it
		// could splice old-incarnation segments into the new stream.
		if h.Flags&FlagSYN != 0 && h.Flags&FlagACK == 0 && seqGT(h.Seq, c.rcvNxt) {
			c.teardown(nil)
			return
		}
		// Re-ack retransmitted FINs.
		if h.Flags&FlagFIN != 0 {
			c.sendAck()
		}
		return
	}

	if c.state == StateClosed {
		return
	}

	if h.Flags&FlagACK != 0 {
		c.processAck(h)
		if c.closed {
			return
		}
	}
	if len(payload) > 0 || h.Flags&FlagFIN != 0 {
		c.processPayload(h, payload, ceMarked)
	}
	if !c.closed {
		c.trySend()
	}
}

func (c *Conn) inputSynSent(h *Header) {
	if h.Flags&(FlagSYN|FlagACK) != FlagSYN|FlagACK || h.Ack != c.iss+1 {
		return
	}
	c.irs = h.Seq
	c.rcvNxt = h.Seq + 1
	c.sndUna = h.Ack
	c.inflight.ackUpTo(h.Ack)
	c.applySynOptions(&h.Opts)
	c.sndWnd = int(h.Window) // unscaled in the SYN-ACK
	// RFC 3168 §6.1.1.1: SYN-ACK with ECE and not CWR means ECN is on.
	c.ecnEnabled = h.Flags&FlagECE != 0 && h.Flags&FlagCWR == 0
	c.stopRTO()
	c.sendAck()
	c.establish()
}

// processPayload handles the data/FIN part of a segment.
func (c *Conn) processPayload(h *Header, payload []byte, ceMarked bool) {
	seq := h.Seq
	fin := h.Flags&FlagFIN != 0
	push := h.Flags&FlagPSH != 0

	// Trim data before rcvNxt (retransmitted overlap).
	if seqLT(seq, c.rcvNxt) {
		skip := seqDiff(c.rcvNxt, seq)
		if skip >= len(payload) {
			if fin && seq+uint32(len(payload)) == c.rcvNxt {
				// FIN exactly at rcvNxt after trimming.
				payload = nil
				seq = c.rcvNxt
			} else {
				// Entirely old: re-ack and drop.
				c.sendAck()
				return
			}
		} else {
			payload = payload[skip:]
			seq = c.rcvNxt
		}
	}

	if ceMarked {
		c.lastDataCE = true
	} else if len(payload) > 0 {
		c.lastDataCE = false
	}

	if seq == c.rcvNxt {
		c.acceptInOrder(payload, fin, push)
	} else {
		// Out of order: buffer everything that fits inside the window
		// we advertised (dropping in-window data would manufacture
		// artificial holes for the sender to recover one RTT at a
		// time), and send an immediate duplicate ACK with SACK info.
		if len(payload) > 0 && c.oooBytes+len(payload) <= c.rcvBuf.Free() {
			data := framepool.Clone(payload)
			c.countCopyRx(len(payload))
			c.insertOOO(oooSeg{seq: seq, data: data, fin: fin, push: push})
			c.lastOOOSeq = seq
		}
		c.sendAck()
		return
	}

	// Acking policy: immediate ack every second segment, else delayed.
	c.unackedSegs++
	if c.unackedSegs >= 2 || c.finRcvd || c.lastDataCE || c.ecnEnabled {
		c.sendAck()
	} else {
		c.armDelack()
	}

	if c.cfg.OnReadable != nil && (c.rcvBuf.Len() > 0 || c.finRcvd) {
		c.cfg.OnReadable()
	}
}

// acceptInOrder consumes payload at rcvNxt, then merges any contiguous
// out-of-order segments.
func (c *Conn) acceptInOrder(payload []byte, fin, push bool) {
	n := c.deliverInOrder(payload, push)
	if n < len(payload) {
		return
	}
	if fin {
		c.handleFIN()
		return
	}
	if len(c.ooo) > 0 {
		c.mergeOOO()
	}
}

// mergeOOO delivers the out-of-order runs rcvNxt has reached, releasing
// each merged segment's frame. The queue slides forward while delivery
// callbacks can see it, then shifts down to the start of its storage,
// which the next insertion reuses instead of regrowing.
func (c *Conn) mergeOOO() {
	store := c.ooo
	fin := false
	for len(c.ooo) > 0 {
		s := c.ooo[0]
		if seqGT(s.seq, c.rcvNxt) {
			break
		}
		c.ooo = c.ooo[1:]
		c.oooBytes -= len(s.data)
		skip := seqDiff(c.rcvNxt, s.seq)
		if skip < 0 || skip > len(s.data) {
			framepool.Put(s.data)
			continue
		}
		m := c.deliverInOrder(s.data[skip:], s.push)
		framepool.Put(s.data)
		if m < len(s.data)-skip {
			break
		}
		if s.fin {
			fin = true
			break
		}
	}
	n := copy(store, c.ooo)
	clear(store[n:])
	c.ooo = store[:n]
	if fin {
		c.handleFIN()
	}
}

// deliverInOrder accepts in-order payload at rcvNxt: first through the
// receive sink (when installed and rcvBuf holds nothing older), then
// into rcvBuf. push says the payload ends a PSH segment. Bytes beyond
// what either accepts are dropped; the advertised window should prevent
// this, but a misbehaving peer must not corrupt state.
func (c *Conn) deliverInOrder(payload []byte, push bool) int {
	total := 0
	if c.sink != nil && len(payload) > 0 && c.rcvBuf.Empty() {
		k := c.sink(payload, push)
		if k < 0 || k > len(payload) {
			panic("tcp: receive sink consumed out of range")
		}
		c.rcvNxt += uint32(k)
		c.stats.BytesRcvd += uint64(k)
		total = k
		payload = payload[k:]
		if len(payload) == 0 {
			return total
		}
	}
	n := c.rcvBuf.Write(payload)
	c.countCopyRx(n)
	c.rcvNxt += uint32(n)
	c.stats.BytesRcvd += uint64(n)
	return total + n
}

// countCopyTx and countCopyRx record payload memcpys into the per-conn
// stats and the optional stack-wide ledger.
func (c *Conn) countCopyTx(n int) {
	if n <= 0 {
		return
	}
	c.stats.TxBytesCopied += uint64(n)
	if c.cfg.CopiedTx != nil {
		c.cfg.CopiedTx.Add(uint64(n))
	}
}

func (c *Conn) countCopyRx(n int) {
	if n <= 0 {
		return
	}
	c.stats.RxBytesCopied += uint64(n)
	if c.cfg.CopiedRx != nil {
		c.cfg.CopiedRx.Add(uint64(n))
	}
}

func (c *Conn) handleFIN() {
	if c.finRcvd {
		return
	}
	c.finRcvd = true
	c.rcvNxt++
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
	case StateFinWait1:
		// Our FIN not yet acked: simultaneous close.
		c.state = StateClosing
	case StateFinWait2:
		c.enterTimeWait()
	}
	c.sendAck()
	if c.cfg.OnReadable != nil {
		c.cfg.OnReadable()
	}
}

func (c *Conn) insertOOO(s oooSeg) {
	i := 0
	for ; i < len(c.ooo); i++ {
		if seqLT(s.seq, c.ooo[i].seq) {
			break
		}
		if s.seq == c.ooo[i].seq {
			framepool.Put(s.data) // duplicate
			return
		}
	}
	c.ooo = append(c.ooo, oooSeg{})
	copy(c.ooo[i+1:], c.ooo[i:])
	c.ooo[i] = s
	c.oooBytes += len(s.data)
}

func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.stopRTO()
	c.armTimeWait(2 * c.cfg.MSL)
}

func (c *Conn) armTimeWait(d time.Duration) {
	c.timeWaitDeadline = c.cfg.Clock.Now().Add(d)
	c.timeWaitTimer.Reset(d)
}

func (c *Conn) onTimeWait() { c.teardown(nil) }

// FinalSeq returns the connection's highest used send sequence number
// (sndMax). A successor connection recycling this port pair must start
// its ISS beyond it so the peer's lingering state cannot confuse old
// and new segments (RFC 6191-flavoured).
func (c *Conn) FinalSeq() uint32 { return c.sndMax }

// oooRuns calls fn, in sequence order, for each maximal contiguous run
// of the (sorted) out-of-order queue, k counting from 0.
func (c *Conn) oooRuns(fn func(k int, run SACKBlock)) {
	k := 0
	run := SACKBlock{Start: c.ooo[0].seq, End: c.ooo[0].seq}
	for _, s := range c.ooo {
		if s.seq != run.End {
			fn(k, run)
			k++
			run.Start = s.seq
		}
		run.End = s.seq + uint32(len(s.data))
	}
	fn(k, run)
}

// fillSACK writes up to MaxSACKBlocks from the out-of-order queue into
// o. Per RFC 2018 the first block is the one containing the most
// recently received segment; the remaining slots rotate through the
// other runs so that, over a stream of ACKs, the sender's scoreboard
// learns about every hole — reporting only the lowest runs would leave
// everything above the front invisible and stall SACK recovery.
//
// The queue's runs are walked twice — once to count them and find the
// newest, once to pick out the chosen ones — so no list of runs is ever
// materialised.
func (c *Conn) fillSACK(o *Options) {
	if !c.sackOK || len(c.ooo) == 0 {
		return
	}
	nruns, newestRun := 0, 0
	c.oooRuns(func(k int, run SACKBlock) {
		nruns = k + 1
		if seqLEQ(run.Start, c.lastOOOSeq) && seqLT(c.lastOOOSeq, run.End) {
			newestRun = k
		}
	})
	// want[j] is the run reported in block j.
	var want [MaxSACKBlocks]int
	want[0] = newestRun
	o.NumSACK = 1
	for i := 1; i < nruns && o.NumSACK < MaxSACKBlocks; i++ {
		idx := (newestRun + int(c.sackRotate) + i) % nruns
		if idx == newestRun {
			continue
		}
		want[o.NumSACK] = idx
		o.NumSACK++
	}
	c.sackRotate++
	c.oooRuns(func(k int, run SACKBlock) {
		for j := 0; j < o.NumSACK; j++ {
			if want[j] == k {
				o.SACK[j] = run
			}
		}
	})
}

func (c *Conn) advertisedWindow() uint16 {
	w := c.rcvBuf.Free() >> c.ourWScale
	if w > 0xffff {
		w = 0xffff
	}
	return uint16(w)
}

func (c *Conn) sendAck() {
	c.delackTimer.Stop()
	c.unackedSegs = 0
	h := c.dataHeader(FlagACK, c.sndNxt)
	c.fillSACK(&h.Opts)
	if c.ecnEnabled && c.lastDataCE {
		h.Flags |= FlagECE
	}
	c.lastAdvWnd = int(h.Window) << c.ourWScale
	c.transmit(h, nil, false)
}

// delayedAckTimeout bounds how long an ACK may be delayed (RFC 1122
// allows up to 500 ms; 40 ms is Linux's minimum delayed-ACK timer).
const delayedAckTimeout = 40 * time.Millisecond

func (c *Conn) armDelack() { c.delackTimer.Reset(delayedAckTimeout) }

func (c *Conn) onDelack() {
	if !c.closed && c.unackedSegs > 0 {
		c.sendAck()
	}
}

// maybeSendWindowUpdate re-advertises after the application drains the
// receive buffer across a significant threshold (silly-window-syndrome
// avoidance on the receive side).
func (c *Conn) maybeSendWindowUpdate() {
	if c.closed || c.state == StateClosed {
		return
	}
	free := c.rcvBuf.Free()
	if c.lastAdvWnd < c.cfg.MSS && free-c.lastAdvWnd >= c.cfg.MSS ||
		free-c.lastAdvWnd >= c.rcvBuf.Cap()/2 {
		c.sendAck()
	}
}

// header resets the connection's scratch header for a new segment.
func (c *Conn) header(flags Flags, seq uint32) *Header {
	c.txHdr = Header{
		SrcPort: c.cfg.Local.Port,
		DstPort: c.cfg.Remote.Port,
		Flags:   flags,
		Seq:     seq,
	}
	return &c.txHdr
}

// dataHeader is header for a segment of an established connection: it
// acknowledges rcvNxt and advertises the current window.
func (c *Conn) dataHeader(flags Flags, seq uint32) *Header {
	h := c.header(flags, seq)
	h.Ack = c.rcvNxt
	h.Window = c.advertisedWindow()
	return h
}

// transmit hands a segment built in the scratch header to the stack.
func (c *Conn) transmit(h *Header, payload []byte, ecnCapable bool) {
	c.stats.SegsSent++
	c.stats.BytesSent += uint64(len(payload))
	c.cfg.Output(h, payload, ecnCapable)
}
