package hypervisor

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/sim"
)

// TestAcceptBacklogOverflow pins the SYN handling when a listener's
// backlog fills: with backlog 2 and 8 simultaneous SYNs, the stack
// drops the overflow (stack_tcp.go refuses a SYN while pending +
// handshaking ≥ MaxBacklog) and the clients' SYN retransmissions admit
// them in later rounds — every connection eventually establishes, none
// errors out, and the early-vs-late split shows the drops happened.
func TestAcceptBacklogOverflow(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")

	srv := vmb.Guest
	lfd := srv.Socket(guestlib.Callbacks{})
	srv.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
		for {
			fd, ok := srv.Accept(lfd)
			if !ok {
				return
			}
			srv.SetCallbacks(fd, guestlib.Callbacks{})
		}
	}})
	if err := srv.Listen(lfd, 80, 2); err != nil {
		t.Fatal(err)
	}

	const dialers = 8
	cli := vma.Guest
	established := 0
	failed := 0
	for i := 0; i < dialers; i++ {
		fd := cli.Socket(guestlib.Callbacks{
			OnEstablished: func(err error) {
				if err != nil {
					failed++
					return
				}
				established++
			},
		})
		if err := cli.Connect(fd, ipVMB, 80); err != nil {
			t.Fatal(err)
		}
	}

	// Before the first retransmission timeout (MinRTO 20 ms) only the
	// backlog's worth of handshakes can have completed; the other SYNs
	// were dropped, not queued.
	c.loop.RunFor(15 * time.Millisecond)
	if established > 2 {
		t.Fatalf("%d connections established with backlog 2 before any SYN retry", established)
	}
	early := established

	// Retransmissions admit the rest in later rounds (the SYN RTO
	// starts at 1 s and backs off, so the last of 8 dialers through a
	// backlog-2 listener lands around t=7 s).
	c.loop.RunFor(15 * time.Second)
	if failed != 0 {
		t.Fatalf("%d connections failed outright; overflow must retry, not error", failed)
	}
	if established != dialers {
		t.Fatalf("%d of %d connections established after retries", established, dialers)
	}
	if early == dialers {
		t.Fatal("all connections made it in the first round: backlog never overflowed")
	}
}

// TestAcceptAfterCloseChurn races teardown against accept: clients
// connect and close immediately, while the server application drains
// its accept queue only later — every drained descriptor refers to a
// connection that is already dead. Closing those descriptors must be
// clean: no panic, no leaked connection state, no leaked chunks.
func TestAcceptAfterCloseChurn(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")

	srv, cli := vmb.Guest, vma.Guest
	lfd := srv.Socket(guestlib.Callbacks{})
	// No OnAcceptable: accepts pile up until the timer below drains them.
	if err := srv.Listen(lfd, 80, 64); err != nil {
		t.Fatal(err)
	}

	const dialers = 16
	closed := 0
	for i := 0; i < dialers; i++ {
		var fd int32
		fd = cli.Socket(guestlib.Callbacks{
			OnEstablished: func(err error) {
				if err == nil {
					cli.Close(fd)
				}
			},
			OnClose: func(error) { closed++ },
		})
		if err := cli.Connect(fd, ipVMB, 80); err != nil {
			t.Fatal(err)
		}
	}

	// Let every connection establish, FIN, and land its OpConnClosed
	// before the server application looks at the accept queue.
	drained := 0
	c.loop.AfterFunc(200*time.Millisecond, func() {
		fds := make([]int32, dialers)
		n := srv.AcceptBatch(lfd, fds)
		drained = n
		for _, fd := range fds[:n] {
			srv.Close(fd)
		}
	})
	c.loop.RunFor(2 * time.Second)

	if closed != dialers {
		t.Fatalf("%d of %d client connections closed", closed, dialers)
	}
	if drained != dialers {
		t.Fatalf("server drained %d of %d accepted connections", drained, dialers)
	}
	// Quiesce TIME_WAIT (2×MSL = 100 ms); nothing may leak.
	c.loop.RunFor(3 * time.Second)
	if n := vma.NSM.Stack.ConnCount(); n != 0 {
		t.Errorf("client NSM leaked %d connections", n)
	}
	if n := vmb.NSM.Stack.ConnCount(); n != 0 {
		t.Errorf("server NSM leaked %d connections", n)
	}
	for _, vm := range []*VM{vma, vmb} {
		for _, pair := range vm.Guest.Pairs() {
			if n := pair.Pages.LiveRefs(); n != 0 {
				t.Errorf("%s channel leaked %d chunk refs", vm.Name, n)
			}
		}
	}
}

// TestAcceptBatchListenerCloseMidBatch closes the listener while its
// accept queue is still half drained: the first AcceptBatch keeps its
// connections, the close orphans the rest, and the orphans unwind —
// their clients see a close instead of a connection idling forever
// behind a descriptor nobody holds.
func TestAcceptBatchListenerCloseMidBatch(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")

	srv, cli := vmb.Guest, vma.Guest
	lfd := srv.Socket(guestlib.Callbacks{})
	if err := srv.Listen(lfd, 80, 64); err != nil {
		t.Fatal(err)
	}

	const dialers = 12
	closedByPeer := 0
	established := 0
	for i := 0; i < dialers; i++ {
		var fd int32
		fd = cli.Socket(guestlib.Callbacks{
			OnEstablished: func(err error) {
				if err == nil {
					established++
				}
			},
			OnClose: func(error) {
				closedByPeer++
				cli.Close(fd) // answer the server's FIN so both sides drain
			},
		})
		if err := cli.Connect(fd, ipVMB, 80); err != nil {
			t.Fatal(err)
		}
	}

	kept := make([]int32, 4)
	var keptN int
	c.loop.AfterFunc(200*time.Millisecond, func() {
		keptN = srv.AcceptBatch(lfd, kept)
		srv.Close(lfd) // orphans the rest of the queue
	})
	c.loop.RunFor(2 * time.Second)

	if established != dialers {
		t.Fatalf("%d of %d dialers established", established, dialers)
	}
	if keptN != len(kept) {
		t.Fatalf("first batch drained %d, want %d", keptN, len(kept))
	}
	// The orphaned (dialers-keptN) connections were closed by the
	// listener teardown; their clients saw it.
	c.loop.RunFor(time.Second)
	if want := dialers - keptN; closedByPeer < want {
		t.Fatalf("%d clients saw a close, want ≥%d orphans", closedByPeer, want)
	}
	// The kept descriptors still work: server can close them cleanly.
	for _, fd := range kept[:keptN] {
		srv.Close(fd)
	}
	c.loop.RunFor(3 * time.Second)
	if n := vmb.NSM.Stack.ConnCount(); n != 0 {
		t.Errorf("server NSM leaked %d connections", n)
	}
}

// pollerReadyTrace runs a seeded bursty scenario against a
// poller-driven server and returns the byte-exact sequence of ready
// events the server observed: virtual timestamp, descriptor, and mask
// of every PollEvent, in drain order.
func pollerReadyTrace(t *testing.T, seed uint64) string {
	t.Helper()
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	srv, cli := vmb.Guest, vma.Guest

	var log strings.Builder
	buf := make([]byte, 4096)
	batch := make([]int32, 16)
	events := make([]guestlib.PollEvent, 32)
	var p *guestlib.Poller
	var lfd int32
	p = srv.NewPoller(func() {
		for {
			n := p.Wait(events)
			if n == 0 {
				return
			}
			for _, ev := range events[:n] {
				fmt.Fprintf(&log, "%d fd=%d ev=%x\n", c.loop.Now(), ev.FD, ev.Events)
				if ev.FD == lfd {
					for {
						m := srv.AcceptBatch(lfd, batch)
						for _, fd := range batch[:m] {
							if err := p.Add(fd); err != nil {
								t.Errorf("poller add: %v", err)
							}
						}
						if m < len(batch) {
							break
						}
					}
					continue
				}
				for {
					n, eof := srv.Recv(ev.FD, buf)
					if n == 0 {
						if eof {
							srv.Close(ev.FD)
						}
						break
					}
				}
			}
		}
	})
	lfd = srv.Socket(guestlib.Callbacks{})
	if err := srv.Listen(lfd, 80, 64); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(lfd); err != nil {
		t.Fatal(err)
	}

	// 24 connections, then seeded bursts of small sends across them.
	const conns = 24
	fds := make([]int32, 0, conns)
	established := 0
	for i := 0; i < conns; i++ {
		fd := cli.Socket(guestlib.Callbacks{
			OnEstablished: func(err error) {
				if err == nil {
					established++
				}
			},
		})
		if err := cli.Connect(fd, ipVMB, 80); err != nil {
			t.Fatal(err)
		}
		fds = append(fds, fd)
	}
	c.loop.RunFor(500 * time.Millisecond)
	if established != conns {
		t.Fatalf("%d of %d connections established", established, conns)
	}

	rng := sim.NewRNG(seed)
	msg := []byte("ready-determinism")
	for b := 0; b < 50; b++ {
		c.loop.AfterFunc(time.Duration(b)*200*time.Microsecond, func() {
			for k := 0; k < 6; k++ {
				cli.Send(fds[rng.Intn(len(fds))], msg)
			}
		})
	}
	c.loop.RunFor(100 * time.Millisecond)
	return log.String()
}

// TestPollerDeterminism is the readiness counterpart of
// chaostest.TestTraceDeterminism: two runs of the same seed must
// deliver byte-identical ready sequences — same descriptors, same
// coalesced masks, same virtual-time instants, same order. Anything
// nondeterministic in the coalescing path (map-ordered flushes, shard
// races, timer jitter) breaks this immediately.
func TestPollerDeterminism(t *testing.T) {
	a := pollerReadyTrace(t, 7777)
	b := pollerReadyTrace(t, 7777)
	if a != b {
		t.Fatalf("two runs with the same seed diverged:\n--- run A ---\n%s\n--- run B ---\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("no ready events observed")
	}
	// The sequence must show coalescing: fewer OnReady-batch lines than
	// the 300 messages sent is implied by masks ORing; at minimum the
	// accept path and the data path both appear.
	if !strings.Contains(a, "ev=4") {
		t.Error("no acceptable-readiness event in the trace")
	}
	if !strings.Contains(a, "ev=1") {
		t.Error("no readable-readiness event in the trace")
	}
}

// TestPollerOneNotificationPerEvent: a polled server learns of each
// message from the OpNewData that carries it, and from nothing else. N
// one-message round trips cost exactly N readable notifications, and the
// engines translate as many elements as for a callback server on the
// same schedule: the NSM sends nothing that a Poller alone asks for.
func TestPollerOneNotificationPerEvent(t *testing.T) {
	const (
		trips = 50
		msg   = 64
	)
	// run echoes trips messages, one per millisecond, and returns the
	// server's poller events over the round trips and the elements both
	// engines translated over the whole run.
	run := func(polled bool) (events, translated uint64) {
		c := newCluster(t, nil)
		vma, vmb := c.nkPair(t, "cubic", "cubic")
		srv, cli := vmb.Guest, vma.Guest

		if polled {
			pollEchoServer(t, srv, 80)
		} else {
			// The same echo on per-event callbacks.
			sbuf := make([]byte, 4<<10)
			echo := func(fd int32) {
				for n, _ := srv.Recv(fd, sbuf); n > 0; n, _ = srv.Recv(fd, sbuf) {
					srv.Send(fd, sbuf[:n])
				}
			}
			var lfd int32
			lfd = srv.Socket(guestlib.Callbacks{OnAcceptable: func() {
				for fd, ok := srv.Accept(lfd); ok; fd, ok = srv.Accept(lfd) {
					srv.SetCallbacks(fd, guestlib.Callbacks{OnReadable: func() { echo(fd) }})
				}
			}})
			if err := srv.Listen(lfd, 80, 64); err != nil {
				t.Fatal(err)
			}
		}

		in := make([]byte, 4<<10)
		got := 0
		established := false
		var cfd int32
		cfd = cli.Socket(guestlib.Callbacks{
			OnEstablished: func(err error) { established = err == nil },
			OnReadable: func() {
				for n, _ := cli.Recv(cfd, in); n > 0; n, _ = cli.Recv(cfd, in) {
					got += n
				}
			},
		})
		if err := cli.Connect(cfd, ipVMB, 80); err != nil {
			t.Fatal(err)
		}
		c.loop.RunFor(10 * time.Millisecond)
		if !established {
			t.Fatal("the client never connected")
		}

		before := srv.Stats().PollerEvents
		out := make([]byte, msg)
		for i := 0; i < trips; i++ {
			if n := cli.Send(cfd, out); n != msg {
				t.Fatalf("round trip %d: sent %d of %d bytes", i, n, msg)
			}
			c.loop.RunFor(time.Millisecond)
		}
		if got != trips*msg {
			t.Fatalf("the client read %d of %d echoed bytes", got, trips*msg)
		}
		events = srv.Stats().PollerEvents - before
		translated = c.h1.Engine.Stats().Translated + c.h2.Engine.Stats().Translated
		return events, translated
	}

	events, polled := run(true)
	_, callback := run(false)
	if events != trips {
		t.Errorf("%d readable notifications for %d round trips, want one each", events, trips)
	}
	if polled != callback {
		t.Errorf("the engines translated %d elements for the polled server and %d for the callback server, want the same", polled, callback)
	}
}
