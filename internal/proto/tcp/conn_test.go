package tcp

import (
	"bytes"
	"testing"
	"time"

	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
	"netkernel/internal/tcpcc"
)

// testNet wires two connections through a serializing pipe with a fixed
// one-way delay, optional per-segment drops, and optional ECN marking.
// Every segment round-trips through Marshal/Parse, so these tests cover
// the wire format under the state machine too.
type testNet struct {
	t     testing.TB
	loop  *sim.Loop
	delay time.Duration

	// drop, when set, discards matching segments. dir is "a→b" or "b→a".
	drop func(dir string, h *Header, payload []byte) bool
	// mark, when set, applies ECN CE to matching data segments.
	mark func(dir string, payload []byte) bool

	a, b         *Conn
	aAddr, bAddr AddrPort

	segsAB, segsBA int
}

func newTestNet(t testing.TB) *testNet {
	return &testNet{
		t:     t,
		loop:  sim.NewLoop(),
		delay: 5 * time.Millisecond,
		aAddr: AddrPort{Addr: ipv4.Addr{10, 0, 0, 1}, Port: 40000},
		bAddr: AddrPort{Addr: ipv4.Addr{10, 0, 0, 2}, Port: 80},
	}
}

// outputTo builds the OutputFunc for one direction.
func (n *testNet) outputTo(dir string, src, dst AddrPort, peer func() *Conn) OutputFunc {
	return func(h *Header, payload []byte, ecnCapable bool) {
		if dir == "a→b" {
			n.segsAB++
		} else {
			n.segsBA++
		}
		if n.drop != nil && n.drop(dir, h, payload) {
			return
		}
		ce := ecnCapable && n.mark != nil && n.mark(dir, payload)
		seg := h.Marshal(src.Addr, dst.Addr, payload)
		n.loop.AfterFunc(n.delay, func() {
			hh, pl, err := Parse(src.Addr, dst.Addr, seg)
			if err != nil {
				n.t.Fatalf("wire corruption %s: %v", dir, err)
			}
			if p := peer(); p != nil {
				n.input(p, &hh, pl, ce)
			}
		})
	}
}

// dialPair sets up an active/passive pair with the given congestion
// controls and returns once wiring is done (handshake still needs the
// loop to run).
func (n *testNet) dialPair(ccA, ccB string, mut func(cfg *Config, side string)) {
	mkCC := func(name string) tcpcc.Algorithm {
		a, err := tcpcc.New(name)
		if err != nil {
			n.t.Fatal(err)
		}
		return a
	}
	bCfg := Config{
		Clock: n.loop, RNG: sim.NewRNG(2),
		Local: n.bAddr, Remote: n.aAddr,
		CC:     mkCC(ccB),
		Output: n.outputTo("b→a", n.bAddr, n.aAddr, func() *Conn { return n.a }),
	}
	if mut != nil {
		mut(&bCfg, "b")
	}

	aCfg := Config{
		Clock: n.loop, RNG: sim.NewRNG(1),
		Local: n.aAddr, Remote: n.bAddr,
		CC:     mkCC(ccA),
		Output: n.outputTo("a→b", n.aAddr, n.bAddr, func() *Conn { return n.b }),
	}
	if mut != nil {
		mut(&aCfg, "a")
	}

	// Passive side: materialize b on the first SYN.
	origOut := aCfg.Output
	aCfg.Output = func(h *Header, payload []byte, ecn bool) {
		if h.Flags&FlagSYN != 0 && h.Flags&FlagACK == 0 && n.b == nil {
			seg := h.Marshal(n.aAddr.Addr, n.bAddr.Addr, payload)
			n.loop.AfterFunc(n.delay, func() {
				hh, _, err := Parse(n.aAddr.Addr, n.bAddr.Addr, seg)
				if err != nil {
					n.t.Fatal(err)
				}
				ecnReq := hh.Flags&FlagECE != 0 && hh.Flags&FlagCWR != 0
				n.b = NewPassive(bCfg, &hh, ecnReq)
			})
			return
		}
		origOut(h, payload, ecn)
	}
	n.a = Dial(aCfg)
}

func (n *testNet) establish() {
	n.loop.RunFor(200 * time.Millisecond)
	if n.a.State() != StateEstablished {
		n.t.Fatalf("a state = %v", n.a.State())
	}
	if n.b == nil || n.b.State() != StateEstablished {
		n.t.Fatalf("b not established")
	}
}

// transfer pushes payload from src to dst through the loop, draining dst
// into the returned buffer, until complete or the deadline passes.
func (n *testNet) transfer(src, dst *Conn, payload []byte, deadline time.Duration) []byte {
	var got bytes.Buffer
	sent := 0
	buf := make([]byte, 64<<10)
	pump := func() {
		for sent < len(payload) {
			w := src.Write(payload[sent:])
			sent += w
			if w == 0 {
				break
			}
		}
	}
	pump()
	end := n.loop.Now().Add(deadline)
	for n.loop.Now() < end && got.Len() < len(payload) {
		n.loop.RunFor(time.Millisecond)
		pump()
		for {
			m, _ := dst.Read(buf)
			if m == 0 {
				break
			}
			got.Write(buf[:m])
		}
	}
	return got.Bytes()
}

func TestHandshakeEstablishes(t *testing.T) {
	n := newTestNet(t)
	var estA, estB error = errSentinel, errSentinel
	n.dialPair("reno", "reno", func(cfg *Config, side string) {
		if side == "a" {
			cfg.OnEstablished = func(err error) { estA = err }
		} else {
			cfg.OnEstablished = func(err error) { estB = err }
		}
	})
	n.establish()
	if estA != nil || estB != nil {
		t.Fatalf("OnEstablished: a=%v b=%v", estA, estB)
	}
	// MSS negotiated to the default on both sides.
	if n.a.cfg.MSS != 1460 || n.b.cfg.MSS != 1460 {
		t.Fatalf("MSS a=%d b=%d", n.a.cfg.MSS, n.b.cfg.MSS)
	}
}

// In SYN-RCVD a segment without ACK is dropped (RFC 9293 §3.10.7.4). A
// FIN without ACK taken there would leave the connection, once the
// handshake ACK lands, ESTABLISHED with the peer's FIN counted: stuck
// short of CLOSE-WAIT, and refused by Restore if it were migrated.
// n.input's checkLive asserts the second half after every segment.
func TestSynRcvdDropsSegmentWithoutACK(t *testing.T) {
	n := newTestNet(t)
	n.drop = func(dir string, _ *Header, _ []byte) bool { return dir == "a→b" } // a's handshake ACK too
	n.dialPair("reno", "reno", nil)
	n.loop.RunFor(3 * n.delay)
	if n.b == nil || n.b.State() != StateSynRcvd {
		t.Fatal("b did not reach SYN-RCVD")
	}
	rcvNxt := n.b.rcvNxt
	n.input(n.b, &Header{Seq: rcvNxt, Flags: FlagFIN, Window: 0xffff}, nil, false)
	if n.b.State() != StateSynRcvd || n.b.finRcvd || n.b.rcvNxt != rcvNxt {
		t.Fatalf("FIN without ACK taken in SYN-RCVD: state %v, finRcvd %v, rcvNxt moved by %d", n.b.State(), n.b.finRcvd, n.b.rcvNxt-rcvNxt)
	}
	n.input(n.b, &Header{Seq: rcvNxt, Ack: n.b.sndNxt, Flags: FlagACK, Window: 0xffff}, nil, false)
	if n.b.State() != StateEstablished {
		t.Fatalf("handshake ACK left b in %v", n.b.State())
	}
}

var errSentinel = errTimeout{}

func TestSmallDataTransfer(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("reno", "reno", nil)
	n.establish()
	msg := []byte("hello network stack as a service")
	got := n.transfer(n.a, n.b, msg, time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q", got)
	}
}

func TestBulkTransferIntegrity(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("cubic", "cubic", nil)
	n.establish()
	payload := make([]byte, 1<<20)
	rng := sim.NewRNG(7)
	for i := range payload {
		payload[i] = byte(rng.Uint64())
	}
	got := n.transfer(n.a, n.b, payload, 30*time.Second)
	if len(got) != len(payload) {
		t.Fatalf("transferred %d of %d bytes", len(got), len(payload))
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted in transit")
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("reno", "reno", nil)
	n.establish()
	msgA := bytes.Repeat([]byte("a"), 100000)
	msgB := bytes.Repeat([]byte("b"), 100000)
	var gotA, gotB bytes.Buffer
	n.a.Write(msgA)
	n.b.Write(msgB)
	buf := make([]byte, 32<<10)
	for i := 0; i < 5000 && (gotA.Len() < len(msgB) || gotB.Len() < len(msgA)); i++ {
		n.loop.RunFor(time.Millisecond)
		for {
			m, _ := n.a.Read(buf)
			if m == 0 {
				break
			}
			gotA.Write(buf[:m])
		}
		for {
			m, _ := n.b.Read(buf)
			if m == 0 {
				break
			}
			gotB.Write(buf[:m])
		}
	}
	if !bytes.Equal(gotA.Bytes(), msgB) || !bytes.Equal(gotB.Bytes(), msgA) {
		t.Fatalf("bidirectional transfer incomplete: a got %d, b got %d", gotA.Len(), gotB.Len())
	}
}

func TestGracefulClose(t *testing.T) {
	n := newTestNet(t)
	var closedA, closedB bool
	n.dialPair("reno", "reno", func(cfg *Config, side string) {
		cfg.MSL = 50 * time.Millisecond
		if side == "a" {
			cfg.OnClose = func(err error) {
				if err != nil {
					t.Errorf("a closed with %v", err)
				}
				closedA = true
			}
		} else {
			cfg.OnClose = func(err error) {
				if err != nil {
					t.Errorf("b closed with %v", err)
				}
				closedB = true
			}
		}
	})
	n.establish()
	n.a.Write([]byte("last words"))
	n.a.Close()
	n.loop.RunFor(50 * time.Millisecond)

	// B sees data then EOF.
	buf := make([]byte, 100)
	m, eof := n.b.Read(buf)
	if string(buf[:m]) != "last words" || !eof {
		t.Fatalf("b read %q eof=%v", buf[:m], eof)
	}
	n.b.Close()
	n.loop.RunFor(500 * time.Millisecond)
	if !closedA || !closedB {
		t.Fatalf("closed a=%v b=%v; states a=%v b=%v", closedA, closedB, n.a.State(), n.b.State())
	}
}

func TestAbortResetsPeer(t *testing.T) {
	n := newTestNet(t)
	var bErr error
	n.dialPair("reno", "reno", func(cfg *Config, side string) {
		if side == "b" {
			cfg.OnClose = func(err error) { bErr = err }
		}
	})
	n.establish()
	n.a.Abort()
	n.loop.RunFor(100 * time.Millisecond)
	if bErr == nil {
		t.Fatalf("peer not reset; b state %v", n.b.State())
	}
	if n.a.State() != StateClosed || n.b.State() != StateClosed {
		t.Fatalf("states a=%v b=%v", n.a.State(), n.b.State())
	}
}

func TestFastRetransmitRecoversLoss(t *testing.T) {
	n := newTestNet(t)
	dropped := false
	n.dialPair("reno", "reno", nil)
	n.establish()
	// Drop exactly one mid-stream data segment.
	n.drop = func(dir string, h *Header, payload []byte) bool {
		if dir == "a→b" && len(payload) > 0 && !dropped && h.Seq-n.a.iss > 20000 {
			dropped = true
			return true
		}
		return false
	}
	payload := make([]byte, 200<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	got := n.transfer(n.a, n.b, payload, 10*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("transfer incomplete after loss: %d of %d", len(got), len(payload))
	}
	if !dropped {
		t.Fatal("test never dropped a segment")
	}
	st := n.a.Stats()
	if st.FastRexmits == 0 {
		t.Fatalf("loss recovered without fast retransmit (RTOs=%d)", st.RTOs)
	}
	if st.RTOs != 0 {
		t.Fatalf("fast-retransmit path fell back to RTO (%d)", st.RTOs)
	}
}

func TestSACKLimitsRetransmissions(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("reno", "reno", nil)
	n.establish()
	dropped := false
	n.drop = func(dir string, h *Header, payload []byte) bool {
		if dir == "a→b" && len(payload) > 0 && !dropped && h.Seq-n.a.iss > 50000 {
			dropped = true
			return true
		}
		return false
	}
	payload := make([]byte, 500<<10)
	got := n.transfer(n.a, n.b, payload, 10*time.Second)
	if len(got) != len(payload) {
		t.Fatalf("transfer incomplete: %d", len(got))
	}
	st := n.a.Stats()
	// With SACK, a single loss needs very few retransmits (the hole),
	// not a whole window's worth.
	if st.Retransmits > 4 {
		t.Fatalf("SACK did not bound retransmissions: %d", st.Retransmits)
	}
}

func TestTailLossRecoversByRTO(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("reno", "reno", func(cfg *Config, side string) {
		cfg.MinRTO = 50 * time.Millisecond
	})
	n.establish()
	msg := []byte("tail segment with nothing after it")
	// Drop its first transmission only.
	drops := 0
	n.drop = func(dir string, h *Header, payload []byte) bool {
		if dir == "a→b" && len(payload) > 0 && drops == 0 {
			drops++
			return true
		}
		return false
	}
	got := n.transfer(n.a, n.b, msg, 5*time.Second)
	if !bytes.Equal(got, msg) {
		t.Fatalf("tail loss never recovered: %q", got)
	}
	if n.a.Stats().RTOs == 0 {
		t.Fatal("expected an RTO for a tail loss with no dupacks")
	}
}

func TestReceiverWindowBackpressure(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("reno", "reno", func(cfg *Config, side string) {
		if side == "b" {
			cfg.RecvBufSize = 16 << 10 // tiny receiver
		}
	})
	n.establish()
	payload := make([]byte, 300<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	// transfer drains the receiver as it goes: flow control must let the
	// whole payload through a 16 KB receive buffer.
	got := n.transfer(n.a, n.b, payload, 30*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatalf("flow-controlled transfer incomplete: %d of %d", len(got), len(payload))
	}
}

func TestZeroWindowPersistProbe(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("reno", "reno", func(cfg *Config, side string) {
		cfg.MinRTO = 50 * time.Millisecond
		if side == "b" {
			cfg.RecvBufSize = 4 << 10
		}
	})
	n.establish()
	payload := make([]byte, 64<<10)
	sent := 0
	for sent < len(payload) {
		w := n.a.Write(payload[sent:])
		sent += w
		if w == 0 {
			break
		}
	}
	// Let the receiver's buffer fill; nobody reads.
	n.loop.RunFor(2 * time.Second)
	if n.a.sndWnd != 0 {
		t.Fatalf("sender window = %d, want 0 while receiver is full", n.a.sndWnd)
	}
	// Now drain: the window reopens (via update or persist probe) and
	// the transfer completes.
	var got bytes.Buffer
	buf := make([]byte, 8<<10)
	for i := 0; i < 20000 && got.Len() < sent; i++ {
		n.loop.RunFor(time.Millisecond)
		if sent < len(payload) {
			sent += n.a.Write(payload[sent:])
		}
		m, _ := n.b.Read(buf)
		got.Write(buf[:m])
	}
	if got.Len() < 60<<10 {
		t.Fatalf("stalled after zero window: got %d", got.Len())
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("reno", "reno", nil)
	n.establish()
	// Delay one segment so its successor arrives first.
	delayedOnce := false
	origDelay := n.delay
	n.drop = func(dir string, h *Header, payload []byte) bool {
		if dir == "a→b" && len(payload) > 0 && !delayedOnce && h.Seq-n.a.iss > 10000 {
			delayedOnce = true
			seg := h.Marshal(n.aAddr.Addr, n.bAddr.Addr, payload)
			n.loop.AfterFunc(origDelay*4, func() {
				hh, pl, _ := Parse(n.aAddr.Addr, n.bAddr.Addr, seg)
				n.input(n.b, &hh, pl, false)
			})
			return true // drop the on-time copy
		}
		return false
	}
	payload := make([]byte, 100<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	got := n.transfer(n.a, n.b, payload, 10*time.Second)
	if !bytes.Equal(got, payload) {
		t.Fatal("reordered stream corrupted")
	}
}

func TestECNEndToEndWithDCTCP(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("dctcp", "dctcp", nil)
	// Mark every 3rd a→b data segment CE.
	count := 0
	n.mark = func(dir string, payload []byte) bool {
		if dir == "a→b" && len(payload) > 0 {
			count++
			return count%3 == 0
		}
		return false
	}
	n.establish()
	if !n.a.ecnEnabled || !n.b.ecnEnabled {
		t.Fatal("ECN not negotiated between DCTCP endpoints")
	}
	payload := make([]byte, 300<<10)
	got := n.transfer(n.a, n.b, payload, 30*time.Second)
	if len(got) != len(payload) {
		t.Fatalf("transfer incomplete under marking: %d", len(got))
	}
	if n.a.Stats().ECNEchoes == 0 {
		t.Fatal("no ECN echoes reached the sender")
	}
	d := n.a.CongestionControl().(*tcpcc.DCTCP)
	if d.Alpha() <= 0 || d.Alpha() > 0.8 {
		t.Fatalf("DCTCP α = %v, want a moderate mark fraction", d.Alpha())
	}
}

func TestECNNotNegotiatedForLossBasedCC(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("cubic", "cubic", nil)
	n.establish()
	if n.a.ecnEnabled || n.b.ecnEnabled {
		t.Fatal("CUBIC endpoints negotiated ECN")
	}
}

func TestNagleCoalescesSmallWrites(t *testing.T) {
	run := func(nagle bool) int {
		n := newTestNet(t)
		n.dialPair("reno", "reno", func(cfg *Config, side string) {
			cfg.Nagle = nagle
		})
		n.establish()
		base := n.segsAB
		for i := 0; i < 50; i++ {
			n.a.Write([]byte("x"))
			n.loop.RunFor(time.Millisecond)
		}
		n.loop.RunFor(time.Second)
		return n.segsAB - base
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("Nagle did not reduce segments: with=%d without=%d", with, without)
	}
}

func TestDelayedAckReducesAckTraffic(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("reno", "reno", nil)
	n.establish()
	base := n.segsBA
	payload := make([]byte, 100<<10)
	n.transfer(n.a, n.b, payload, 5*time.Second)
	acks := n.segsBA - base
	dataSegs := (len(payload) + 1459) / 1460
	if acks > dataSegs*3/4 {
		t.Fatalf("delayed acks ineffective: %d acks for %d data segments", acks, dataSegs)
	}
}

func TestRTTEstimation(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("reno", "reno", nil)
	n.establish()
	payload := make([]byte, 50<<10)
	n.transfer(n.a, n.b, payload, 5*time.Second)
	st := n.a.Stats()
	// One-way delay is 5 ms → RTT ≈ 10 ms (plus ack delay).
	if st.SRTT < 9*time.Millisecond || st.SRTT > 60*time.Millisecond {
		t.Fatalf("SRTT = %v, want ≈10ms", st.SRTT)
	}
	if st.MinRTT < 9*time.Millisecond || st.MinRTT > 15*time.Millisecond {
		t.Fatalf("MinRTT = %v", st.MinRTT)
	}
}

func TestStatsAccounting(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("reno", "reno", nil)
	n.establish()
	payload := make([]byte, 10000)
	n.transfer(n.a, n.b, payload, 5*time.Second)
	n.loop.RunFor(time.Second)
	sa, sb := n.a.Stats(), n.b.Stats()
	if sa.BytesSent < 10000 || sa.BytesAcked != 10000 {
		t.Fatalf("sender stats %+v", sa)
	}
	if sb.BytesRcvd != 10000 {
		t.Fatalf("receiver stats %+v", sb)
	}
}

func TestListenerBacklog(t *testing.T) {
	l := NewListener(AddrPort{Port: 80}, 2)
	if _, ok := l.Accept(); ok {
		t.Fatal("Accept on empty backlog succeeded")
	}
	notified := 0
	l.OnAcceptable = func() { notified++ }
	l.Deposit(&Conn{})
	l.Deposit(&Conn{})
	if !l.Full() {
		t.Fatal("backlog of 2 not full after 2 deposits")
	}
	if notified != 1 {
		t.Fatalf("OnAcceptable fired %d times, want 1 (edge-triggered)", notified)
	}
	if _, ok := l.Accept(); !ok {
		t.Fatal("Accept failed")
	}
	if l.Pending() != 1 || l.Full() {
		t.Fatal("backlog accounting broken")
	}
}

func TestSeqnumArithmetic(t *testing.T) {
	const top = ^uint32(0)
	if !seqLT(top-10, 10) {
		t.Fatal("wraparound LT broken")
	}
	if !seqGT(10, top-10) {
		t.Fatal("wraparound GT broken")
	}
	if seqDiff(10, top-9) != 20 {
		t.Fatalf("seqDiff across wrap = %d, want 20", seqDiff(10, top-9))
	}
	if seqMax(top-10, 10) != 10 {
		t.Fatal("seqMax across wrap broken")
	}
	if !seqLEQ(5, 5) || !seqGEQ(5, 5) {
		t.Fatal("equality cases broken")
	}
}

func TestByteRing(t *testing.T) {
	r := newByteRing(10)
	if n := r.Write([]byte("hello world!")); n != 10 {
		t.Fatalf("Write = %d, want 10 (capacity)", n)
	}
	buf := make([]byte, 4)
	if r.Peek(buf, 6) != 4 || string(buf) != "worl" {
		t.Fatalf("Peek at offset = %q", buf)
	}
	if r.Read(buf) != 4 || string(buf) != "hell" {
		t.Fatalf("Read = %q", buf)
	}
	if r.Write([]byte("XY")) != 2 { // wraps around
		t.Fatal("wrap write failed")
	}
	rest := make([]byte, 10)
	n := r.Read(rest)
	if string(rest[:n]) != "o worlXY" { // the 12-byte write truncated at capacity

		t.Fatalf("wrapped content = %q", rest[:n])
	}
	if !r.Empty() || r.Free() != 10 {
		t.Fatal("ring not empty after drain")
	}
}

// A SACK block that ends exactly at the FIN's sequence number must not
// mark the (zero-length) FIN segment as selectively acked. Regression:
// the degenerate interval [finSeq, finSeq) fits inside any block that
// SACKs the final data segment, and a "sacked" FIN is skipped by every
// retransmission path while trySend refuses to run post-FIN — the close
// wedges into a no-op RTO loop until the backoff limit tears the
// connection down. Reordered or lost closing segments (routine on a
// lossy link) trigger exactly that shape.
func TestLostFINRetransmitsDespiteSACK(t *testing.T) {
	n := newTestNet(t)
	var droppedData, droppedFIN bool
	var firstDataSeq uint32
	n.drop = func(dir string, h *Header, payload []byte) bool {
		if dir != "a→b" {
			return false
		}
		// Drop the first copy of the first data segment so the second
		// segment arrives out of order and gets SACKed...
		if len(payload) > 0 && !droppedData {
			droppedData = true
			firstDataSeq = h.Seq
			return true
		}
		// ...and the first copy of the FIN, so closing depends on the
		// RTO resending it.
		if h.Flags&FlagFIN != 0 && !droppedFIN {
			droppedFIN = true
			return true
		}
		return false
	}
	n.dialPair("reno", "reno", func(cfg *Config, side string) {
		cfg.MinRTO = 50 * time.Millisecond
	})
	n.establish()

	msg := make([]byte, 2*n.a.cfg.MSS) // exactly two segments, then FIN
	for i := range msg {
		msg[i] = byte(i)
	}
	if w := n.a.Write(msg); w != len(msg) {
		t.Fatalf("short write: %d", w)
	}
	n.a.Close()
	// The first RTO (initial 1s, no RTT sample yet) resends the data
	// hole; the FIN needs the next, backed-off RTO (~2s later).
	n.loop.RunFor(6 * time.Second)

	if !droppedData || !droppedFIN {
		t.Fatalf("scenario not staged: droppedData=%v droppedFIN=%v (firstDataSeq=%d)",
			droppedData, droppedFIN, firstDataSeq)
	}
	buf := make([]byte, 64<<10)
	var got bytes.Buffer
	for {
		m, eof := n.b.Read(buf)
		got.Write(buf[:m])
		if eof || m == 0 {
			break
		}
	}
	if !bytes.Equal(got.Bytes(), msg) {
		t.Fatalf("b received %d of %d bytes", got.Len(), len(msg))
	}
	// b must have seen the retransmitted FIN (CloseWait), and a must
	// still be alive in FinWait2 — not torn down by a futile RTO loop.
	if n.b.State() != StateCloseWait {
		t.Fatalf("b state = %v, want close-wait (FIN never arrived)", n.b.State())
	}
	if n.a.State() != StateFinWait2 {
		t.Fatalf("a state = %v, want fin-wait-2", n.a.State())
	}
}
