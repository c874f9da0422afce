package guestlib

import (
	"bytes"
	"testing"
	"time"

	"netkernel/internal/nkchan"
	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
)

// harness wires a GuestLib to a pair with a recording fake engine.
type harness struct {
	loop  *sim.Loop
	pair  *nkchan.Pair
	g     *GuestLib
	jobs  []nqe.Element
	kicks int
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	pair, err := nkchan.NewPair(nkchan.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{loop: sim.NewLoop(), pair: pair}
	pair.KickEngineVM = func(int) {
		h.kicks++
		var e nqe.Element
		for pair.VMJob.Pop(&e) {
			h.jobs = append(h.jobs, e)
		}
	}
	h.g = New(Config{Clock: h.loop, VMID: 7, Pairs: []*nkchan.Pair{pair}})
	return h
}

// completeSocket emulates the engine+NSM answering an OpSocket.
func (h *harness) completeSocket(fd int32, seq uint64) {
	e := nqe.Element{Op: nqe.OpSocket, FD: fd, Seq: seq, Source: nqe.FromCore, Flags: nqe.FlagCompletion}
	h.pair.VMCompletion.Push(&e)
	h.pair.KickVM(0)
}

func (h *harness) deliverEvent(e nqe.Element) {
	h.pair.VMReceive.Push(&e)
	h.pair.KickVM(0)
}

func TestSocketEmitsJob(t *testing.T) {
	h := newHarness(t)
	fd := h.g.Socket(Callbacks{})
	if fd < 3 {
		t.Fatalf("fd = %d", fd)
	}
	if len(h.jobs) != 1 || h.jobs[0].Op != nqe.OpSocket || h.jobs[0].FD != fd || h.jobs[0].VMID != 7 {
		t.Fatalf("jobs = %+v", h.jobs)
	}
}

func TestConnectDeferredUntilSocketReady(t *testing.T) {
	h := newHarness(t)
	fd := h.g.Socket(Callbacks{})
	if err := h.g.Connect(fd, ipv4.Addr{10, 0, 0, 2}, 80); err != nil {
		t.Fatal(err)
	}
	// Only the OpSocket job should be out; OpConnect waits for the
	// mapping to exist.
	if len(h.jobs) != 1 {
		t.Fatalf("connect leaked before readiness: %d jobs", len(h.jobs))
	}
	h.completeSocket(fd, h.jobs[0].Seq)
	if len(h.jobs) != 2 || h.jobs[1].Op != nqe.OpConnect {
		t.Fatalf("deferred connect not flushed: %+v", h.jobs)
	}
	ip, port := nqe.UnpackAddr(h.jobs[1].Arg0)
	if ip != (ipv4.Addr{10, 0, 0, 2}) || port != 80 {
		t.Fatalf("connect addr %v:%d", ip, port)
	}
}

func TestConnectOnConnectingSocketFails(t *testing.T) {
	h := newHarness(t)
	fd := h.g.Socket(Callbacks{})
	h.g.Connect(fd, ipv4.Addr{10, 0, 0, 2}, 80)
	if err := h.g.Connect(fd, ipv4.Addr{10, 0, 0, 3}, 80); err == nil {
		t.Fatal("double connect accepted")
	}
	if err := h.g.Connect(999, ipv4.Addr{10, 0, 0, 3}, 80); err == nil {
		t.Fatal("connect on bad fd accepted")
	}
}

func TestEstablishedEventFiresCallback(t *testing.T) {
	h := newHarness(t)
	var got error = errX
	fd := h.g.Socket(Callbacks{OnEstablished: func(err error) { got = err }})
	h.completeSocket(fd, h.jobs[0].Seq)
	h.g.Connect(fd, ipv4.Addr{10, 0, 0, 2}, 80)
	h.deliverEvent(nqe.Element{Op: nqe.OpEstablished, FD: fd, Status: nqe.StatusOK, Source: nqe.FromNSM})
	if got != nil {
		t.Fatalf("OnEstablished got %v", got)
	}
	// Failure path.
	var got2 error
	fd2 := h.g.Socket(Callbacks{OnEstablished: func(err error) { got2 = err }})
	h.completeSocket(fd2, h.jobs[len(h.jobs)-1].Seq)
	h.g.Connect(fd2, ipv4.Addr{10, 0, 0, 9}, 80)
	h.deliverEvent(nqe.Element{Op: nqe.OpEstablished, FD: fd2, Status: nqe.StatusConnRefused, Source: nqe.FromNSM})
	if got2 == nil {
		t.Fatal("refused connect reported success")
	}
}

var errX = &xErr{}

type xErr struct{}

func (*xErr) Error() string { return "x" }

func establishedSocket(t *testing.T, h *harness, cbs Callbacks) int32 {
	t.Helper()
	fd := h.g.Socket(cbs)
	h.completeSocket(fd, h.jobs[len(h.jobs)-1].Seq)
	h.g.Connect(fd, ipv4.Addr{10, 0, 0, 2}, 80)
	h.deliverEvent(nqe.Element{Op: nqe.OpEstablished, FD: fd, Status: nqe.StatusOK, Source: nqe.FromNSM})
	return fd
}

func TestSendChunksAndCredit(t *testing.T) {
	h := newHarness(t)
	fd := establishedSocket(t, h, Callbacks{})
	base := len(h.jobs)

	payload := make([]byte, 20<<10) // 2.5 chunks of 8 KB
	for i := range payload {
		payload[i] = byte(i)
	}
	if n := h.g.Send(fd, payload); n != len(payload) {
		t.Fatalf("Send = %d", n)
	}
	sends := h.jobs[base:]
	if len(sends) != 3 {
		t.Fatalf("%d send jobs, want 3 chunks", len(sends))
	}
	// Verify data landed in the huge pages intact.
	var reassembled bytes.Buffer
	for _, e := range sends {
		if e.Op != nqe.OpSend {
			t.Fatalf("job op %v", e.Op)
		}
		buf := make([]byte, e.DataLen)
		h.pair.Pages.Read(shmChunk(e.DataOff), buf, int(e.DataLen))
		reassembled.Write(buf)
	}
	if !bytes.Equal(reassembled.Bytes(), payload) {
		t.Fatal("huge-page contents do not match the payload")
	}
	// FlagMoreData set on all but the last chunk.
	if sends[0].Flags&nqe.FlagMoreData == 0 || sends[2].Flags&nqe.FlagMoreData != 0 {
		t.Fatal("FlagMoreData misapplied")
	}
}

func TestSendCreditExhaustionAndWritable(t *testing.T) {
	pair, _ := nkchan.NewPair(nkchan.Config{}, nil)
	loop := sim.NewLoop()
	var jobs []nqe.Element
	pair.KickEngineVM = func(int) {
		var e nqe.Element
		for pair.VMJob.Pop(&e) {
			jobs = append(jobs, e)
		}
	}
	g := New(Config{Clock: loop, VMID: 1, Pairs: []*nkchan.Pair{pair}, SendCredit: 16 << 10})
	fd := g.Socket(Callbacks{})
	e := nqe.Element{Op: nqe.OpSocket, FD: fd, Seq: jobs[0].Seq, Flags: nqe.FlagCompletion, Source: nqe.FromCore}
	pair.VMCompletion.Push(&e)
	pair.KickVM(0)
	g.Connect(fd, ipv4.Addr{10, 0, 0, 2}, 80)
	ev := nqe.Element{Op: nqe.OpEstablished, FD: fd, Status: nqe.StatusOK, Source: nqe.FromNSM}
	pair.VMReceive.Push(&ev)
	pair.KickVM(0)

	writable := 0
	g.SetCallbacks(fd, Callbacks{OnWritable: func() { writable++ }})

	// 16 KB credit: a 100 KB send is cut short.
	n := g.Send(fd, make([]byte, 100<<10))
	if n != 16<<10 {
		t.Fatalf("Send accepted %d, want credit-bounded 16KB", n)
	}
	if g.Send(fd, []byte("more")) != 0 {
		t.Fatal("send with zero credit accepted data")
	}
	if g.Stats().CreditStalls == 0 {
		t.Fatal("credit stall not counted")
	}

	// A send completion returns credit and fires OnWritable.
	comp := nqe.Element{Op: nqe.OpSend, FD: fd, DataLen: 8 << 10, Flags: nqe.FlagCompletion, Source: nqe.FromNSM}
	pair.VMCompletion.Push(&comp)
	pair.KickVM(0)
	if writable != 1 {
		t.Fatalf("OnWritable fired %d times", writable)
	}
	if g.Send(fd, make([]byte, 8<<10)) != 8<<10 {
		t.Fatal("returned credit unusable")
	}
}

func TestRecvFromNewDataEvents(t *testing.T) {
	h := newHarness(t)
	readable := 0
	fd := establishedSocket(t, h, Callbacks{})
	h.g.SetCallbacks(fd, Callbacks{OnReadable: func() { readable++ }})

	// NSM wrote a chunk and sent a new-data event.
	chunk, _ := h.pair.Pages.Alloc()
	msg := []byte("data from the wire")
	h.pair.Pages.Write(chunk, msg)
	h.deliverEvent(nqe.Element{Op: nqe.OpNewData, FD: fd, DataOff: chunk.Offset, DataLen: uint32(len(msg)), Source: nqe.FromNSM})

	if readable != 1 {
		t.Fatalf("OnReadable fired %d times", readable)
	}
	if h.g.ReadAvailable(fd) != len(msg) {
		t.Fatalf("ReadAvailable = %d", h.g.ReadAvailable(fd))
	}
	buf := make([]byte, 64)
	n, eof := h.g.Recv(fd, buf)
	if !bytes.Equal(buf[:n], msg) || eof {
		t.Fatalf("Recv = %q eof=%v", buf[:n], eof)
	}
	// The chunk was freed back to the pool.
	if h.pair.Pages.FreeCount() != h.pair.Pages.Chunks() {
		t.Fatal("chunk leaked after Recv")
	}
	// Credit (OpRecv) returned to the NSM.
	last := h.jobs[len(h.jobs)-1]
	if last.Op != nqe.OpRecv || last.Arg0 != uint64(len(msg)) {
		t.Fatalf("credit job %+v", last)
	}
}

func TestRecvPartialReads(t *testing.T) {
	h := newHarness(t)
	fd := establishedSocket(t, h, Callbacks{})
	chunk, _ := h.pair.Pages.Alloc()
	h.pair.Pages.Write(chunk, []byte("abcdefgh"))
	h.deliverEvent(nqe.Element{Op: nqe.OpNewData, FD: fd, DataOff: chunk.Offset, DataLen: 8, Source: nqe.FromNSM})

	buf := make([]byte, 3)
	n, _ := h.g.Recv(fd, buf)
	if string(buf[:n]) != "abc" {
		t.Fatalf("first read %q", buf[:n])
	}
	n, _ = h.g.Recv(fd, buf)
	if string(buf[:n]) != "def" {
		t.Fatalf("second read %q", buf[:n])
	}
	n, _ = h.g.Recv(fd, buf)
	if string(buf[:n]) != "gh" {
		t.Fatalf("third read %q", buf[:n])
	}
}

func TestConnClosedDeliversEOFAndOnClose(t *testing.T) {
	h := newHarness(t)
	closed := 0
	var closeErr error = errX
	fd := establishedSocket(t, h, Callbacks{})
	h.g.SetCallbacks(fd, Callbacks{OnClose: func(err error) { closed++; closeErr = err }})
	h.deliverEvent(nqe.Element{Op: nqe.OpConnClosed, FD: fd, Status: nqe.StatusOK, Source: nqe.FromNSM})
	if closed != 1 || closeErr != nil {
		t.Fatalf("OnClose fired %d times with %v", closed, closeErr)
	}
	_, eof := h.g.Recv(fd, make([]byte, 4))
	if !eof {
		t.Fatal("no EOF after conn-closed")
	}
	// Reset path carries the error.
	fd2 := establishedSocket(t, h, Callbacks{})
	var err2 error
	h.g.SetCallbacks(fd2, Callbacks{OnClose: func(err error) { err2 = err }})
	h.deliverEvent(nqe.Element{Op: nqe.OpConnClosed, FD: fd2, Status: nqe.StatusConnReset, Source: nqe.FromNSM})
	if err2 == nil {
		t.Fatal("reset close reported clean")
	}
}

func TestListenerAcceptFlow(t *testing.T) {
	h := newHarness(t)
	acceptable := 0
	lfd := h.g.Socket(Callbacks{OnAcceptable: func() { acceptable++ }})
	h.completeSocket(lfd, h.jobs[0].Seq)
	if err := h.g.Listen(lfd, 80, 8); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.g.Accept(lfd); ok {
		t.Fatal("accept on empty listener succeeded")
	}
	// Two connections arrive; fds minted by the CoreEngine in Arg1.
	h.deliverEvent(nqe.Element{Op: nqe.OpNewConn, FD: lfd, Arg0: nqe.PackAddr(ipv4.Addr{10, 9, 9, 9}, 5555), Arg1: 1 << 20, Source: nqe.FromNSM})
	h.deliverEvent(nqe.Element{Op: nqe.OpNewConn, FD: lfd, Arg1: 1<<20 + 1, Source: nqe.FromNSM})
	if acceptable != 1 {
		t.Fatalf("OnAcceptable fired %d times, want edge-triggered 1", acceptable)
	}
	fd1, ok1 := h.g.Accept(lfd)
	fd2, ok2 := h.g.Accept(lfd)
	if !ok1 || !ok2 || fd1 != 1<<20 || fd2 != 1<<20+1 {
		t.Fatalf("accepts %d/%v %d/%v", fd1, ok1, fd2, ok2)
	}
	// Accepted sockets are immediately usable.
	if n := h.g.Send(fd1, []byte("hi")); n != 2 {
		t.Fatalf("send on accepted fd = %d", n)
	}
	// Listen on connected socket fails.
	if err := h.g.Listen(fd1, 81, 4); err == nil {
		t.Fatal("listen on established socket accepted")
	}
}

func TestSendOnNotEstablished(t *testing.T) {
	h := newHarness(t)
	fd := h.g.Socket(Callbacks{})
	if h.g.Send(fd, []byte("early")) != 0 {
		t.Fatal("send before connect accepted data")
	}
	if n, eof := h.g.Recv(999, make([]byte, 4)); n != 0 || !eof {
		t.Fatal("recv on bad fd should report EOF")
	}
}

func TestProfilesDefaultCC(t *testing.T) {
	if ProfileLinux.DefaultCC() != "cubic" || ProfileWindows.DefaultCC() != "ctcp" || ProfileFreeBSD.DefaultCC() != "reno" {
		t.Fatal("guest profile CC defaults broken")
	}
	if GuestProfile("plan9").DefaultCC() != "cubic" {
		t.Fatal("unknown profile should default to cubic")
	}
}

func TestStatsAccounting(t *testing.T) {
	h := newHarness(t)
	fd := establishedSocket(t, h, Callbacks{})
	h.g.Send(fd, make([]byte, 1000))
	st := h.g.Stats()
	if st.OpsIssued == 0 || st.BytesSent != 1000 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSendFullQueueFreesChunk pins the ENOBUFS path: when the job ring
// is full, Send must stop short AND return the already-written huge-page
// chunk of the refused push to the pool — the descriptor never made it
// out, so nobody else will ever free it.
func TestSendFullQueueFreesChunk(t *testing.T) {
	// A tiny job ring and no engine draining it, so sends back up.
	pair, err := nkchan.NewPair(nkchan.Config{Queue: nkqueue.Config{Slots: 4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	loop := sim.NewLoop()
	g := New(Config{Clock: loop, VMID: 7, Pairs: []*nkchan.Pair{pair}})

	fd := g.Socket(Callbacks{})
	var e nqe.Element
	if !pair.VMJob.Pop(&e) || e.Op != nqe.OpSocket {
		t.Fatalf("expected OpSocket job, got %+v", e)
	}
	done := nqe.Element{Op: nqe.OpSocket, FD: fd, Seq: e.Seq, Source: nqe.FromCore, Flags: nqe.FlagCompletion}
	pair.VMCompletion.Push(&done)
	pair.KickVM(0)
	if err := g.Connect(fd, ipv4.Addr{10, 0, 0, 9}, 80); err != nil {
		t.Fatal(err)
	}
	if !pair.VMJob.Pop(&e) || e.Op != nqe.OpConnect {
		t.Fatalf("expected OpConnect job, got %+v", e)
	}
	est := nqe.Element{Op: nqe.OpEstablished, FD: fd, Status: nqe.StatusOK, Source: nqe.FromNSM}
	pair.VMReceive.Push(&est)
	pair.KickVM(0)

	// The ring is empty again: four chunks fit, the fifth is refused.
	chunk := pair.ChunkSize()
	if n := g.Send(fd, make([]byte, 8*chunk)); n != 4*chunk {
		t.Fatalf("Send took %d bytes before the ring filled, want %d", n, 4*chunk)
	}
	// Each queued send legitimately holds one chunk; the refused one
	// must not.
	pool := pair.Pages
	if free, want := pool.FreeCount(), pool.Chunks()-4; free != want {
		t.Errorf("pool: %d free of %d, want %d (refused push leaked its chunk)",
			free, pool.Chunks(), want)
	}
	// And the failure is stable, not a one-off: retry fails and still
	// doesn't leak.
	if n := g.Send(fd, []byte("more")); n != 0 {
		t.Fatalf("Send took %d bytes on a full ring", n)
	}
	if free, want := pool.FreeCount(), pool.Chunks()-4; free != want {
		t.Errorf("pool after retry: %d free, want %d", free, want)
	}
}

// TestNothingPostedAfterClose: OpClose is the last job GuestLib posts for
// a descriptor, the promise the CoreEngine retires the fd↔cID mapping on.
// Every call that would post a job fails on a closed socket, ready or
// still waiting for its OpSocket completion, and the job queue sees
// nothing.
func TestNothingPostedAfterClose(t *testing.T) {
	h := newHarness(t)
	g := h.g
	p := g.NewPoller(nil)
	ready := func(fd int32) int32 {
		h.completeSocket(fd, h.jobs[len(h.jobs)-1].Seq)
		return fd
	}
	stream := ready(g.Socket(Callbacks{}))
	polled := ready(g.Socket(Callbacks{}))
	if err := p.Add(polled); err != nil {
		t.Fatal(err)
	}
	early := g.Socket(Callbacks{}) // closed before its OpSocket completes
	for _, fd := range []int32{stream, polled, early} {
		g.Close(fd)
	}

	pushed := h.pair.VMJob.Pushed()
	peer := ipv4.Addr{10, 0, 0, 2}
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Connect", func() error { return g.Connect(stream, peer, 80) }},
		{"Listen", func() error { return g.Listen(stream, 80, 4) }},
		{"SetSockOpt", func() error { return g.SetSockOpt(stream, nqe.SockOptNagle, 0) }},
		{"Poller.Add", func() error { return p.Add(stream) }},
		{"Poller.Remove", func() error { return p.Remove(polled) }},
		{"Connect before ready", func() error { return g.Connect(early, peer, 80) }},
		{"SetSockOpt before ready", func() error { return g.SetSockOpt(early, nqe.SockOptNagle, 0) }},
	} {
		if err := c.call(); err == nil {
			t.Errorf("%s on a closed socket succeeded", c.name)
		}
	}
	if n := g.Send(stream, []byte("late")); n != 0 {
		t.Errorf("Send on a closed socket took %d bytes", n)
	}
	if n := h.pair.VMJob.Pushed(); n != pushed {
		t.Errorf("job queue took %d jobs after the closes", n-pushed)
	}
	// The early socket's deferred jobs end with its OpClose.
	h.completeSocket(early, h.jobs[len(h.jobs)-1].Seq)
	if last := h.jobs[len(h.jobs)-1]; last.Op != nqe.OpClose || last.FD != early {
		t.Errorf("last job after the early socket's completion is %v on fd %d, want its close", last.Op, last.FD)
	}
}

// TestPollerAddReplaysLocally: a socket added to a Poller after its
// events arrived reports them from the state GuestLib already holds —
// buffered data, pending accepts, a seen close — in one OnReady, and the
// attachment posts no job: the NSM knows nothing of pollers.
func TestPollerAddReplaysLocally(t *testing.T) {
	for _, tc := range []struct {
		name string
		// prime brings a fresh socket to the state under test and returns
		// the descriptor to add.
		prime func(t *testing.T, h *harness) int32
		want  uint32
	}{
		{"buffered data", func(t *testing.T, h *harness) int32 {
			fd := establishedSocket(t, h, Callbacks{})
			chunk, _ := h.pair.Pages.Alloc()
			h.deliverEvent(nqe.Element{Op: nqe.OpNewData, FD: fd, DataOff: chunk.Offset, DataLen: 1, Source: nqe.FromNSM})
			return fd
		}, nqe.ReadyReadable},
		{"pending accepts", func(t *testing.T, h *harness) int32 {
			lfd := h.g.Socket(Callbacks{})
			h.completeSocket(lfd, h.jobs[len(h.jobs)-1].Seq)
			if err := h.g.Listen(lfd, 80, 8); err != nil {
				t.Fatal(err)
			}
			h.deliverEvent(nqe.Element{Op: nqe.OpNewConn, FD: lfd, Arg1: 1 << 20, Source: nqe.FromNSM})
			h.deliverEvent(nqe.Element{Op: nqe.OpNewConn, FD: lfd, Arg1: 1<<20 + 1, Source: nqe.FromNSM})
			return lfd
		}, nqe.ReadyAcceptable},
		{"closed", func(t *testing.T, h *harness) int32 {
			fd := establishedSocket(t, h, Callbacks{})
			h.deliverEvent(nqe.Element{Op: nqe.OpConnClosed, FD: fd, Source: nqe.FromNSM})
			return fd
		}, nqe.ReadyReadable | nqe.ReadyClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t)
			fd := tc.prime(t, h)
			var p *Poller
			var got [][]PollEvent
			p = h.g.NewPoller(func() {
				evs := make([]PollEvent, 4)
				got = append(got, evs[:p.Wait(evs)])
			})
			pushed := h.pair.VMJob.Pushed()
			if err := p.Add(fd); err != nil {
				t.Fatal(err)
			}
			h.loop.RunFor(time.Millisecond)
			if n := h.pair.VMJob.Pushed() - pushed; n != 0 {
				t.Errorf("Add posted %d jobs, want none", n)
			}
			if len(got) != 1 || len(got[0]) != 1 || got[0][0] != (PollEvent{FD: fd, Events: tc.want}) {
				t.Errorf("wakeups %+v, want one reporting fd %d with mask %#x", got, fd, tc.want)
			}
		})
	}
}
