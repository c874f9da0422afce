package servicelib

import (
	"bytes"
	"testing"
	"time"

	"netkernel/internal/netsim"
	"netkernel/internal/nkchan"
	"netkernel/internal/nqe"
	"netkernel/internal/proto/ethernet"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/shm"
	"netkernel/internal/sim"
	"netkernel/internal/stack"
)

var (
	ipNSM  = ipv4.Addr{10, 0, 0, 1}
	ipPeer = ipv4.Addr{10, 0, 0, 2}
)

type harness struct {
	loop *sim.Loop
	pair *nkchan.Pair
	svc  *ServiceLib
	peer *stack.Stack

	completions []nqe.Element
	events      []nqe.Element
	seq         uint64
}

func newHarness(t *testing.T, cc string) *harness {
	t.Helper()
	loop := sim.NewLoop()
	rng := sim.NewRNG(11)
	pair, err := nkchan.NewPair(nkchan.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{loop: loop, pair: pair}

	nsmStack := stack.New(stack.Config{Clock: loop, RNG: sim.NewRNG(1), Name: "nsm", MinRTO: 20 * time.Millisecond})
	h.peer = stack.New(stack.Config{Clock: loop, RNG: sim.NewRNG(2), Name: "peer", MinRTO: 20 * time.Millisecond})

	macA := ethernet.MAC{2, 0, 0, 0, 0, 1}
	macB := ethernet.MAC{2, 0, 0, 0, 0, 2}
	nicA := netsim.NewNIC(loop, netsim.MAC(macA))
	nicB := netsim.NewNIC(loop, netsim.MAC(macB))
	ab, ba := netsim.Duplex(loop, rng, netsim.LinkConfig{Rate: 10 * netsim.Gbps, Delay: 100 * time.Microsecond}, nicA, nicB)
	nicA.AttachWire(ab)
	nicB.AttachWire(ba)
	nsmStack.AttachInterface(macA, ipNSM, 1500, 24, ipv4.Addr{}, nicA.Send)
	h.peer.AttachInterface(macB, ipPeer, 1500, 24, ipv4.Addr{}, nicB.Send)
	nicA.SetHandler(nsmStack.DeliverFrame)
	nicB.SetHandler(h.peer.DeliverFrame)

	// Drain the NSM-side output queues into recording slices, as the
	// CoreEngine would.
	pair.KickEngineNSM = func(int) {
		var e nqe.Element
		for pair.NSMCompletion.Pop(&e) {
			h.completions = append(h.completions, e)
		}
		for pair.NSMReceive.Pop(&e) {
			h.events = append(h.events, e)
		}
	}

	h.svc = New(Config{Clock: loop, NSMID: 5, Pair: pair, Stack: nsmStack, CC: cc})
	return h
}

func (h *harness) job(e nqe.Element) {
	h.seq++
	e.Seq = h.seq
	e.Source = nqe.FromVM
	e.NSMID = 5
	if !h.pair.NSMJob.Push(&e) {
		panic("job queue full")
	}
	h.pair.KickNSM(0)
}

// newSocket issues OpSocket and returns the assigned cID.
func (h *harness) newSocket(t *testing.T) uint32 {
	t.Helper()
	before := len(h.completions)
	h.job(nqe.Element{Op: nqe.OpSocket})
	if len(h.completions) != before+1 {
		t.Fatal("no socket completion")
	}
	c := h.completions[before]
	if c.Op != nqe.OpSocket || c.CID == 0 || c.NSMID != 5 {
		t.Fatalf("socket completion %+v", c)
	}
	return c.CID
}

func TestSocketAllocatesCIDs(t *testing.T) {
	h := newHarness(t, "cubic")
	c1 := h.newSocket(t)
	c2 := h.newSocket(t)
	if c1 == c2 {
		t.Fatal("duplicate cIDs")
	}
}

func TestConnectEmitsEstablished(t *testing.T) {
	h := newHarness(t, "cubic")
	h.peer.Listen(80, 4, stack.SocketOptions{})
	cid := h.newSocket(t)
	h.job(nqe.Element{Op: nqe.OpConnect, CID: cid, Arg0: nqe.PackAddr(ipPeer, 80)})
	h.loop.RunFor(200 * time.Millisecond)
	if len(h.events) == 0 {
		t.Fatal("no events after connect")
	}
	ev := h.events[0]
	if ev.Op != nqe.OpEstablished || ev.CID != cid || ev.Status != nqe.StatusOK {
		t.Fatalf("event %+v", ev)
	}
}

func TestConnectRefusedStatus(t *testing.T) {
	h := newHarness(t, "cubic")
	cid := h.newSocket(t)
	h.job(nqe.Element{Op: nqe.OpConnect, CID: cid, Arg0: nqe.PackAddr(ipPeer, 9999)})
	h.loop.RunFor(500 * time.Millisecond)
	if len(h.events) == 0 {
		t.Fatal("no establishment failure event")
	}
	if h.events[0].Status == nqe.StatusOK {
		t.Fatal("refused connect reported OK")
	}
}

// A connect to an address neither on-link nor behind a gateway fails
// with the status that names it, not with the one a malformed job gets.
func TestConnectNoRouteStatus(t *testing.T) {
	h := newHarness(t, "cubic")
	cid := h.newSocket(t)
	h.job(nqe.Element{Op: nqe.OpConnect, CID: cid, Arg0: nqe.PackAddr(ipv4.Addr{192, 168, 7, 7}, 80)})
	h.loop.RunFor(100 * time.Millisecond)
	if len(h.events) == 0 {
		t.Fatal("no establishment failure event")
	}
	if ev := h.events[0]; ev.Op != nqe.OpEstablished || ev.CID != cid || ev.Status != nqe.StatusUnreachable {
		t.Fatalf("event %+v, want OpEstablished with status %v", ev, nqe.StatusUnreachable)
	}
}

// A second listen on a port answers "address in use"; a listen that
// fails for another reason does not.
func TestListenStatus(t *testing.T) {
	h := newHarness(t, "cubic")
	listen := func(cid uint32) nqe.Status {
		before := len(h.completions)
		h.job(nqe.Element{Op: nqe.OpListen, CID: cid, Arg0: 80, Arg1: 4})
		h.loop.RunFor(time.Millisecond)
		if len(h.completions) != before+1 {
			t.Fatalf("listen on cid %d: %d completions, want 1", cid, len(h.completions)-before)
		}
		return h.completions[before].Status
	}
	if st := listen(h.newSocket(t)); st != nqe.StatusOK {
		t.Fatalf("first listen: %v", st)
	}
	if st := listen(h.newSocket(t)); st != nqe.StatusAddrInUse {
		t.Fatalf("second listen on the port: %v, want %v", st, nqe.StatusAddrInUse)
	}
	cid := h.newSocket(t)
	h.svc.cfg.Stack.Kill()
	if st := listen(cid); st != nqe.StatusInvalid {
		t.Fatalf("listen on a killed stack: %v, want %v", st, nqe.StatusInvalid)
	}
}

func TestNSMUsesItsCC(t *testing.T) {
	h := newHarness(t, "bbr")
	h.peer.Listen(80, 4, stack.SocketOptions{})
	cid := h.newSocket(t)
	h.job(nqe.Element{Op: nqe.OpConnect, CID: cid, Arg0: nqe.PackAddr(ipPeer, 80)})
	h.loop.RunFor(200 * time.Millisecond)
	found := ""
	h.svc.cfg.Stack.Conns(func(c *tcp.Conn) { found = c.CongestionControl().Name() })
	if found != "bbr" {
		t.Fatalf("NSM stack conn runs %q", found)
	}
	if h.svc.CC() != "bbr" {
		t.Fatal("CC() broken")
	}
}

// establish sets up a connection and returns its cID plus the peer's
// half.
func (h *harness) establish(t *testing.T) (uint32, *tcp.Conn) {
	t.Helper()
	l, err := h.peer.Listen(80, 4, stack.SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cid := h.newSocket(t)
	h.job(nqe.Element{Op: nqe.OpConnect, CID: cid, Arg0: nqe.PackAddr(ipPeer, 80)})
	h.loop.RunFor(200 * time.Millisecond)
	peerConn, ok := l.Accept()
	if !ok {
		t.Fatal("peer accept failed")
	}
	return cid, peerConn
}

func TestSendPathWritesToWire(t *testing.T) {
	h := newHarness(t, "cubic")
	cid, peerConn := h.establish(t)

	msg := []byte("through the huge pages onto the wire")
	chunk, _ := h.pair.Pages.Alloc()
	h.pair.Pages.Write(chunk, msg)
	h.job(nqe.Element{Op: nqe.OpSend, CID: cid, DataOff: chunk.Offset, DataLen: uint32(len(msg))})
	h.loop.RunFor(100 * time.Millisecond)

	buf := make([]byte, 256)
	n, _ := peerConn.Read(buf)
	if !bytes.Equal(buf[:n], msg) {
		t.Fatalf("peer read %q", buf[:n])
	}
	// Send completion returned the credit and freed the chunk.
	var sendComp *nqe.Element
	for i := range h.completions {
		if h.completions[i].Op == nqe.OpSend {
			sendComp = &h.completions[i]
		}
	}
	if sendComp == nil || sendComp.DataLen != uint32(len(msg)) {
		t.Fatalf("send completion %+v", sendComp)
	}
	if h.pair.Pages.FreeCount() != h.pair.Pages.Chunks() {
		t.Fatal("chunk not freed after send")
	}
}

func TestReceivePathEmitsNewData(t *testing.T) {
	h := newHarness(t, "cubic")
	cid, peerConn := h.establish(t)

	msg := bytes.Repeat([]byte("x"), 20000)
	peerConn.Write(msg)
	h.loop.RunFor(200 * time.Millisecond)

	var got bytes.Buffer
	for _, ev := range h.events {
		if ev.Op != nqe.OpNewData || ev.CID != cid {
			continue
		}
		buf := make([]byte, ev.DataLen)
		h.pair.Pages.Read(shm.Chunk{Offset: ev.DataOff}, buf, int(ev.DataLen))
		got.Write(buf)
	}
	if !bytes.Equal(got.Bytes(), msg) {
		t.Fatalf("reassembled %d bytes of %d", got.Len(), len(msg))
	}
}

func TestReceiveWindowBackpressure(t *testing.T) {
	loopHarness := newHarness(t, "cubic")
	h := loopHarness
	// Shrink the shm receive window.
	h.svc.cfg.RecvWindow = 16 << 10
	cid, peerConn := h.establish(t)

	peerConn.Write(make([]byte, 200<<10))
	h.loop.RunFor(300 * time.Millisecond)

	outstanding := 0
	for _, ev := range h.events {
		if ev.Op == nqe.OpNewData {
			outstanding += int(ev.DataLen)
		}
	}
	if outstanding > 32<<10 {
		t.Fatalf("NSM pushed %d bytes past a 16KB window", outstanding)
	}

	// Returning credit resumes delivery.
	h.job(nqe.Element{Op: nqe.OpRecv, CID: cid, Arg0: uint64(outstanding)})
	h.loop.RunFor(300 * time.Millisecond)
	after := 0
	for _, ev := range h.events {
		if ev.Op == nqe.OpNewData {
			after += int(ev.DataLen)
		}
	}
	if after <= outstanding {
		t.Fatal("credit did not resume delivery")
	}
}

func TestListenAcceptEmitsNewConn(t *testing.T) {
	h := newHarness(t, "cubic")
	lcid := h.newSocket(t)
	h.job(nqe.Element{Op: nqe.OpListen, CID: lcid, Arg0: 8080, Arg1: 8})
	// Listen completion OK.
	found := false
	for _, c := range h.completions {
		if c.Op == nqe.OpListen && c.Status == nqe.StatusOK {
			found = true
		}
	}
	if !found {
		t.Fatal("no listen completion")
	}

	_, err := h.peer.Dial(tcp.AddrPort{Addr: ipNSM, Port: 8080}, stack.SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h.loop.RunFor(200 * time.Millisecond)

	var nc *nqe.Element
	for i := range h.events {
		if h.events[i].Op == nqe.OpNewConn {
			nc = &h.events[i]
		}
	}
	if nc == nil || nc.CID != lcid || nc.Arg1 == 0 {
		t.Fatalf("new-conn event %+v", nc)
	}
	ip, _ := nqe.UnpackAddr(nc.Arg0)
	if ip != ipPeer {
		t.Fatalf("peer addr %v", ip)
	}
	if h.svc.Stats().Accepts != 1 {
		t.Fatalf("Accepts = %d", h.svc.Stats().Accepts)
	}

	// The listener's close counts the OpNewConns it announced: the engine
	// keeps its mapping until it has translated that many.
	h.job(nqe.Element{Op: nqe.OpClose, CID: lcid})
	last := h.events[len(h.events)-1]
	if last.Op != nqe.OpConnClosed || last.CID != lcid || last.Arg1 != 1 {
		t.Fatalf("listener close emitted %+v, want OpConnClosed with Arg1 1", last)
	}
}

func TestListenPortConflictStatus(t *testing.T) {
	h := newHarness(t, "cubic")
	c1 := h.newSocket(t)
	h.job(nqe.Element{Op: nqe.OpListen, CID: c1, Arg0: 80, Arg1: 4})
	c2 := h.newSocket(t)
	h.job(nqe.Element{Op: nqe.OpListen, CID: c2, Arg0: 80, Arg1: 4})
	bad := false
	for _, c := range h.completions {
		if c.Op == nqe.OpListen && c.Status == nqe.StatusAddrInUse {
			bad = true
		}
	}
	if !bad {
		t.Fatal("port conflict not reported")
	}
}

func TestCloseEmitsConnClosed(t *testing.T) {
	h := newHarness(t, "cubic")
	cid, peerConn := h.establish(t)
	peerConn.Close() // peer initiates
	h.loop.RunFor(300 * time.Millisecond)
	closedSeen := false
	for _, ev := range h.events {
		if ev.Op == nqe.OpConnClosed && ev.CID == cid {
			closedSeen = true
		}
	}
	if !closedSeen {
		t.Fatal("no conn-closed event after peer FIN")
	}
}

func TestVMInitiatedClose(t *testing.T) {
	h := newHarness(t, "cubic")
	cid, peerConn := h.establish(t)
	h.job(nqe.Element{Op: nqe.OpClose, CID: cid})
	h.loop.RunFor(300 * time.Millisecond)
	buf := make([]byte, 16)
	if _, eof := peerConn.Read(buf); !eof {
		t.Fatal("peer never saw FIN from the NSM")
	}
}

func TestSendToUnknownCIDFreesChunk(t *testing.T) {
	h := newHarness(t, "cubic")
	chunk, _ := h.pair.Pages.Alloc()
	h.job(nqe.Element{Op: nqe.OpSend, CID: 777, DataOff: chunk.Offset, DataLen: 100})
	if h.pair.Pages.FreeCount() != h.pair.Pages.Chunks() {
		t.Fatal("chunk leaked on unknown cID")
	}
}

// Every OpSend, OpSetSockOpt and OpListen is answered exactly once, whatever happens to its socket: the CoreEngine counts
// the completions it is owed and retires a closed socket's fd↔cID mapping
// only when none is left.
func TestEveryAnsweredJobAnsweredOnce(t *testing.T) {
	// answers counts the completions of op for cid.
	answers := func(h *harness, op nqe.Op, cid uint32) (ok, failed int) {
		for _, c := range h.completions {
			if c.Op == op && c.CID == cid {
				if c.Status == nqe.StatusOK {
					ok++
				} else {
					failed++
				}
			}
		}
		return ok, failed
	}
	send := func(h *harness, cid uint32, n int) {
		chunk, ok := h.pair.Pages.Alloc()
		if !ok {
			t.Fatal("huge pages exhausted")
		}
		h.job(nqe.Element{Op: nqe.OpSend, CID: cid, DataOff: chunk.Offset, DataLen: uint32(n)})
	}

	t.Run("unknown cID", func(t *testing.T) {
		h := newHarness(t, "cubic")
		send(h, 777, 100)
		h.job(nqe.Element{Op: nqe.OpListen, CID: 778, Arg0: 80, Arg1: 4})
		if _, failed := answers(h, nqe.OpSend, 777); failed != 1 {
			t.Errorf("OpSend on an unknown cID answered %d times, want 1 error", failed)
		}
		if _, failed := answers(h, nqe.OpListen, 778); failed != 1 {
			t.Errorf("OpListen on an unknown cID answered %d times, want 1 error", failed)
		}
	})

	t.Run("never connected", func(t *testing.T) {
		h := newHarness(t, "cubic")
		cid := h.newSocket(t)
		send(h, cid, 100)
		send(h, cid, 200)
		h.job(nqe.Element{Op: nqe.OpClose, CID: cid})
		if _, failed := answers(h, nqe.OpSend, cid); failed != 2 {
			t.Errorf("queued sends of a closed, never-connected socket answered %d times, want 2 errors", failed)
		}
		if h.pair.Pages.FreeCount() != h.pair.Pages.Chunks() {
			t.Error("queued send chunks leaked")
		}
	})

	t.Run("reset with sends queued", func(t *testing.T) {
		h := newHarness(t, "cubic")
		cid, peerConn := h.establish(t)
		// The peer never reads: its 1 MiB window closes, the 1 MiB send
		// buffer fills and the rest of the 3 MiB waits in the
		// connection's send queue.
		jobs := 3 << 20 / h.pair.ChunkSize()
		for i := 0; i < jobs; i++ {
			send(h, cid, h.pair.ChunkSize())
		}
		h.loop.RunFor(50 * time.Millisecond)
		sent, _ := answers(h, nqe.OpSend, cid)
		if sent == jobs {
			t.Fatal("every send completed: nothing was left queued to drop")
		}
		peerConn.Abort()
		h.loop.RunFor(50 * time.Millisecond)
		ok, failed := answers(h, nqe.OpSend, cid)
		if ok != sent || ok+failed != jobs {
			t.Errorf("%d OpSend jobs answered %d OK + %d failed, want %d + %d", jobs, ok, failed, sent, jobs-sent)
		}
		if n := h.pair.Pages.LiveRefs(); n != 0 {
			t.Errorf("%d chunk references left after the reset", n)
		}
	})
}

// A segment the sender marked PSH ends its message: the sink emits the
// partly filled chunk in the same event that delivered the bytes, and
// arms no coalescing window. Bytes mid-burst still wait for one.
func TestPushEmitsWithoutWindow(t *testing.T) {
	h := newHarness(t, "cubic")
	cid, peerConn := h.establish(t)
	cs := h.svc.conns[cid]
	newData := func() int {
		n := 0
		for _, ev := range h.events {
			if ev.Op == nqe.OpNewData && ev.CID == cid {
				n += int(ev.DataLen)
			}
		}
		return n
	}

	peerConn.Write(make([]byte, 64)) // one segment, PSH
	for cs.conn.Stats().BytesRcvd < 64 {
		if !h.loop.Step() {
			t.Fatal("loop ran dry")
		}
	}
	if got := newData(); got != 64 || cs.flushPending {
		t.Fatalf("as TCP took a PSH segment: %d B emitted, window armed %v; want 64 B and no window", got, cs.flushPending)
	}

	// Mid-burst bytes (no PSH) fill the chunk and wait for the window.
	cs.receive(make([]byte, 100), false)
	if got := newData(); got != 64 || !cs.flushPending {
		t.Fatalf("mid-burst: %d B emitted, window armed %v; want 64 B and a window", got, cs.flushPending)
	}
	h.loop.RunFor(coalesceDelay)
	if got := newData(); got != 164 {
		t.Fatalf("after the window: %d B emitted, want 164", got)
	}
}
