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

func TestAllocsConveyorBulkEcho(t *testing.T) {
	const chunk = 16 << 10
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	srv, cli := vmb.Guest, vma.Guest

	// Server: write every received byte back.
	sbuf := make([]byte, chunk)
	var pend []byte
	var sfd int32
	echo := func() {
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
		srv.SetCallbacks(sfd, guestlib.Callbacks{OnReadable: echo, OnWritable: echo})
	}})
	if err := srv.Listen(lfd, 80, 4); err != nil {
		t.Fatal(err)
	}

	// Client: one 16 KiB chunk out per op, counted back in.
	out, in := make([]byte, chunk), make([]byte, chunk)
	var cfd int32
	var toSend, echoed int
	established := false
	send := func() {
		for toSend > 0 {
			n := cli.Send(cfd, out[:toSend])
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
	op := func() {
		target += chunk
		toSend = chunk
		send()
		stepUntil(t, c, func() bool { return echoed >= target })
	}
	for i := 0; i < 300; i++ {
		op() // slow start, ring and pool growth, loop slots
	}
	if n := testing.AllocsPerRun(100, op); n != 0 {
		t.Errorf("%v allocations per 16 KiB echoed, want 0", n)
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

// Connection churn allocates nothing on the NSM side either (DESIGN.md
// §16): once the free lists are warm, a whole short flow — socket,
// connect, 64 B echo, close, on both hosts — reuses the TCP connection,
// its callbacks and every per-connection queue. The client's callbacks
// are built once, so nothing the test itself does allocates per flow.
func TestAllocsShortFlowChurn(t *testing.T) {
	const msg = 64
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	srv, cli := vmb.Guest, vma.Guest

	// Server: a poller echo loop that closes on the client's EOF.
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
	if err := srv.Listen(lfd, 80, 64); err != nil {
		t.Fatal(err)
	}
	p.Add(lfd)

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
