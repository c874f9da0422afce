package hypervisor

import (
	"testing"

	"netkernel/internal/guestlib"
)

// The whole conveyor allocates nothing per message (DESIGN.md §16): once
// a two-host channel is warm, echoing 16 KiB through GuestLib → engine →
// ServiceLib → TCP → wire and back, or a 64 B round trip to a polled
// server, creates no heap object anywhere on either host.

// stepUntil runs the loop until done reports true.
func stepUntil(t *testing.T, c *cluster, done func() bool) {
	for !done() {
		if !c.loop.Step() {
			t.Fatal("loop ran dry")
		}
	}
}

// warmBulkEcho builds a two-host echo and returns the two VMs and an echo
// that sends n bytes and waits for all of them to come back, after 300
// echoes of 16 KiB (slow start, ring and pool growth, loop slots).
func warmBulkEcho(t *testing.T) (vma, vmb *VM, echo func(n int)) {
	const chunk = 16 << 10
	c := newCluster(t, nil)
	vma, vmb = c.nkPair(t, "cubic", "cubic")
	srv, cli := vmb.Guest, vma.Guest

	// Server: write every received byte back.
	sbuf := make([]byte, chunk)
	var pend []byte
	var sfd int32
	serve := func() {
		for {
			for len(pend) > 0 {
				n := srv.Send(sfd, pend)
				if n == 0 {
					return
				}
				pend = pend[n:]
			}
			n, _ := srv.Recv(sfd, sbuf)
			if n == 0 {
				return
			}
			pend = sbuf[:n]
		}
	}
	lfd := srv.Socket(guestlib.Callbacks{})
	srv.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
		sfd, _ = srv.Accept(lfd)
		srv.SetCallbacks(sfd, guestlib.Callbacks{OnReadable: serve, OnWritable: serve})
	}})
	if err := srv.Listen(lfd, 80, 4); err != nil {
		t.Fatal(err)
	}

	// Client: n bytes out, 16 KiB at a time, counted back in.
	out, in := make([]byte, chunk), make([]byte, chunk)
	var cfd int32
	var toSend, echoed int
	established := false
	send := func() {
		for toSend > 0 {
			n := cli.Send(cfd, out[:min(toSend, chunk)])
			if n == 0 {
				return
			}
			toSend -= n
		}
	}
	cfd = cli.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) { established = err == nil },
		OnWritable:    send,
		OnReadable: func() {
			for {
				n, _ := cli.Recv(cfd, in)
				if n == 0 {
					return
				}
				echoed += n
			}
		},
	})
	if err := cli.Connect(cfd, ipVMB, 80); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, c, func() bool { return established })

	target := 0
	echo = func(n int) {
		target += n
		toSend = n
		send()
		stepUntil(t, c, func() bool { return echoed >= target })
	}
	for i := 0; i < 300; i++ {
		echo(chunk)
	}
	return vma, vmb, echo
}

func TestAllocsConveyorBulkEcho(t *testing.T) {
	_, _, echo := warmBulkEcho(t)
	op := func() { echo(16 << 10) }
	if n := testing.AllocsPerRun(100, op); n != 0 {
		t.Errorf("%v allocations per 16 KiB echoed, want 0", n)
	}
}

// ServiceLib takes a chunk's span reference only when the TCP send
// buffer has room for the whole chunk (DESIGN.md §16). A chunk that
// cannot fit is offered with no reference, which arms OnWritable and
// touches no refcount, so an echo that keeps the send buffers full
// retains exactly once per chunk handed off: one Retain per OpSend
// completion the guests receive, not one per ACK that frees less than a
// chunk of buffer.
func TestRefusedHandOffTakesNoReference(t *testing.T) {
	const stream = 4 << 20
	vma, vmb, echo := warmBulkEcho(t)
	echo(stream) // a full pipe: cwnd growth, send queues at depth
	count := func() (retains, handedOff uint64) {
		for _, vm := range []*VM{vma, vmb} {
			retains += vm.Guest.Pairs()[0].Pages.Retains()
			// A warm echo's only completions are OpSend's, one per
			// chunk the NSM handed to TCP.
			handedOff += uint64(vm.Guest.Stats().Completions)
		}
		return retains, handedOff
	}
	// Both counts are read with the echo drained, so every chunk handed
	// off in between has had its completion delivered.
	r0, h0 := count()
	echo(stream)
	r1, h1 := count()
	retains, handedOff := r1-r0, h1-h0
	if handedOff == 0 {
		t.Fatal("no chunk was handed off")
	}
	t.Logf("%d Retain calls, %d chunks handed off", retains, handedOff)
	if retains != handedOff {
		t.Errorf("%d Retain calls for %d chunks handed off (%.2f per chunk), want 1 per chunk",
			retains, handedOff, float64(retains)/float64(handedOff))
	}
}

func TestAllocsConveyorPolledRoundTrip(t *testing.T) {
	const msg = 64
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	srv, cli := vmb.Guest, vma.Guest

	// Server: the poller echo loop of the message-rate work.
	sbuf := make([]byte, 4<<10)
	events := make([]guestlib.PollEvent, 16)
	accepted := make([]int32, 16)
	var p *guestlib.Poller
	var lfd int32
	p = srv.NewPoller(func() {
		for {
			n := p.Wait(events)
			if n == 0 {
				return
			}
			for _, ev := range events[:n] {
				if ev.FD == lfd {
					for _, fd := range accepted[:srv.AcceptBatch(lfd, accepted)] {
						p.Add(fd)
					}
					continue
				}
				for {
					m, _ := srv.Recv(ev.FD, sbuf)
					if m == 0 {
						break
					}
					srv.Send(ev.FD, sbuf[:m])
				}
			}
		}
	})
	lfd = srv.Socket(guestlib.Callbacks{})
	if err := srv.Listen(lfd, 80, 4); err != nil {
		t.Fatal(err)
	}
	p.Add(lfd)

	out, in := make([]byte, msg), make([]byte, 4<<10)
	var cfd int32
	got := 0
	established := false
	cfd = cli.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) { established = err == nil },
		OnReadable: func() {
			for {
				n, _ := cli.Recv(cfd, in)
				if n == 0 {
					return
				}
				got += n
			}
		},
	})
	if err := cli.Connect(cfd, ipVMB, 80); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, c, func() bool { return established })

	target := 0
	op := func() {
		target += msg
		if cli.Send(cfd, out) != msg {
			t.Fatal("short send")
		}
		stepUntil(t, c, func() bool { return got >= target })
	}
	for i := 0; i < 300; i++ {
		op()
	}
	if n := testing.AllocsPerRun(100, op); n != 0 {
		t.Errorf("%v allocations per 64 B polled round trip, want 0", n)
	}
}

// pollEchoServer listens on port with the short-flow server shape: a
// poller echo loop that accepts in batches and closes on the client's
// EOF. It returns the listener's descriptor.
func pollEchoServer(t *testing.T, srv *guestlib.GuestLib, port uint16) (lfd int32) {
	t.Helper()
	sbuf := make([]byte, 4<<10)
	events := make([]guestlib.PollEvent, 16)
	accepted := make([]int32, 16)
	var p *guestlib.Poller
	p = srv.NewPoller(func() {
		for {
			n := p.Wait(events)
			if n == 0 {
				return
			}
			for _, ev := range events[:n] {
				if ev.FD == lfd {
					for _, fd := range accepted[:srv.AcceptBatch(lfd, accepted)] {
						p.Add(fd)
					}
					continue
				}
				for {
					m, eof := srv.Recv(ev.FD, sbuf)
					if m == 0 {
						if eof {
							srv.Close(ev.FD)
						}
						break
					}
					srv.Send(ev.FD, sbuf[:m])
				}
			}
		}
	})
	lfd = srv.Socket(guestlib.Callbacks{})
	if err := srv.Listen(lfd, port, 64); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(lfd); err != nil {
		t.Fatal(err)
	}
	return lfd
}

// Connection churn allocates nothing on the NSM side either (DESIGN.md
// §16): once the free lists are warm, a whole short flow — socket,
// connect, 64 B echo, close, on both hosts — reuses the TCP connection,
// its callbacks and every per-connection queue. The client's callbacks
// are built once, so nothing the test itself does allocates per flow.
func TestAllocsShortFlowChurn(t *testing.T) {
	const msg = 64
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	cli := vma.Guest
	pollEchoServer(t, vmb.Guest, 80)

	// Client: dial, send 64 B, read the echo, close; the flow ends when
	// the guest sees the connection closed.
	out, in := make([]byte, msg), make([]byte, 4<<10)
	var fd int32
	got, ended := 0, false
	cbs := guestlib.Callbacks{
		OnEstablished: func(err error) {
			if err != nil {
				t.Fatalf("connect: %v", err)
			}
			if cli.Send(fd, out) != msg {
				t.Fatal("short send")
			}
		},
		OnReadable: func() {
			for got < msg {
				n, _ := cli.Recv(fd, in)
				if n == 0 {
					return
				}
				if got += n; got >= msg {
					cli.Close(fd)
				}
			}
		},
		OnClose: func(error) { ended = true },
	}
	flowEnded := func() bool { return ended }
	op := func() {
		got, ended = 0, false
		fd = cli.Socket(cbs)
		if err := cli.Connect(fd, ipVMB, 80); err != nil {
			t.Fatal(err)
		}
		stepUntil(t, c, flowEnded)
		if got != msg {
			t.Fatalf("flow echoed %d of %d bytes", got, msg)
		}
	}
	for i := 0; i < 300; i++ {
		op() // free lists, rings, maps and loop slots reach their working size
	}
	// AllocsPerRun truncates its average: 0 reads as under one per flow.
	if n := testing.AllocsPerRun(200, op); n != 0 {
		t.Errorf("%v allocations per short flow, want 0", n)
	}
}
