package hypervisor

import (
	"testing"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/sim"
)

// A mapping's lifecycle (DESIGN.md §10): the engine retires a connection's
// fd↔cID entry when the guest's OpClose, the NSM's OpConnClosed and the
// completion of every job it forwarded have all been translated — not on
// a timer.
// A listener's entry also waits for the OpNewConns its close counts.

// TestMappingRetiresWithTheFlow runs 2 000 short flows, sixteen at a
// time, against a polled echo server. Right after the last flow's close
// handshake, each engine holds only what is live: the server's listener
// and nothing else. The loop holds no event per closed flow either. The
// listener's entry then retires with its close, not a timer later.
func TestMappingRetiresWithTheFlow(t *testing.T) {
	const (
		flows = 2000
		conc  = 16
		msg   = 64
	)
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	cli := vma.Guest
	lfd := pollEchoServer(t, vmb.Guest, 80)

	out := make([]byte, msg)
	started, ended, pendingHalf := 0, 0, 0
	var dial func()
	dial = func() {
		if started == flows {
			return
		}
		started++
		var fd int32
		got := 0
		in := make([]byte, 256)
		fd = cli.Socket(guestlib.Callbacks{
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
			OnClose: func(err error) {
				if err != nil || got != msg {
					t.Errorf("flow ended with %d of %d bytes: %v", got, msg, err)
				}
				if ended++; ended == flows/2 {
					pendingHalf = c.loop.Pending()
				}
				dial()
			},
		})
		if err := cli.Connect(fd, ipVMB, 80); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < conc; i++ {
		dial()
	}
	stepUntil(t, c, func() bool { return ended == flows })

	if m := c.h1.Engine.Mappings(); m != 0 {
		t.Errorf("client engine holds %d mappings after %d closed flows, want 0", m, flows)
	}
	if m := c.h2.Engine.Mappings(); m != 1 {
		t.Errorf("server engine holds %d mappings after %d closed flows, want 1 (the listener)", m, flows)
	}
	if p := c.loop.Pending(); p > pendingHalf+conc {
		t.Errorf("loop holds %d events after %d closed flows, %d after %d: pending grows with flows closed",
			p, flows, pendingHalf, flows/2)
	}
	// The listener's close travels guest → engine → ServiceLib → engine
	// in microseconds; a timer on its mapping would hold it far longer.
	start := c.loop.Now()
	vmb.Guest.Close(lfd)
	stepUntil(t, c, func() bool { return c.h2.Engine.Mappings() == 0 })
	if took := c.loop.Now().Sub(start); took >= time.Millisecond {
		t.Errorf("the listener's mapping retired %v after its close, want < 1ms", took)
	}
	for name, h := range map[string]*Host{"client": c.h1, "server": c.h2} {
		if n := h.Engine.Stats().BadElements; n != 0 {
			t.Errorf("%s engine rejected %d elements", name, n)
		}
	}
}

// TestCloseLongAfterPeerFIN: the client sends a message and closes at
// once; the server guest reads and closes only `wait` after that FIN.
// Its receive credit and its close must still translate, however long it
// waited, or the server connection stays in CLOSE-WAIT and the client's
// in FIN-WAIT-2 for good. (A timer on the mapping fails this once the
// wait outlives it.)
func TestCloseLongAfterPeerFIN(t *testing.T) {
	for _, wait := range []time.Duration{500 * time.Millisecond, 3 * time.Second} {
		t.Run(wait.String(), func(t *testing.T) {
			c := newCluster(t, nil)
			vma, vmb := c.nkPair(t, "cubic", "cubic")
			srv, cli := vmb.Guest, vma.Guest
			msg := []byte("half-closed, then read late")

			got := 0
			lfd := srv.Socket(guestlib.Callbacks{})
			srv.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
				fd, ok := srv.Accept(lfd)
				if !ok {
					return
				}
				// The client's FIN lands within a millisecond of the accept.
				c.loop.AfterFunc(wait, func() {
					buf := make([]byte, 256)
					for {
						n, eof := srv.Recv(fd, buf)
						got += n
						if n == 0 {
							if eof {
								srv.Close(fd)
							}
							return
						}
					}
				})
			}})
			if err := srv.Listen(lfd, 80, 4); err != nil {
				t.Fatal(err)
			}
			var cfd int32
			cfd = cli.Socket(guestlib.Callbacks{OnEstablished: func(err error) {
				if err != nil {
					t.Fatalf("connect: %v", err)
				}
				cli.Send(cfd, msg)
				cli.Close(cfd)
			}})
			if err := cli.Connect(cfd, ipVMB, 80); err != nil {
				t.Fatal(err)
			}
			// The late close, then TIME-WAIT (2×MSL = 100 ms), with room.
			c.loop.RunFor(wait + 5*time.Second)

			if got != len(msg) {
				t.Errorf("server read %d of %d bytes", got, len(msg))
			}
			for name, h := range map[string]*Host{"client": c.h1, "server": c.h2} {
				if n := h.Engine.Stats().BadElements; n != 0 {
					t.Errorf("%s engine rejected %d elements", name, n)
				}
			}
			for name, vm := range map[string]*VM{"client": vma, "server": vmb} {
				if n := vm.NSM.Stack.ConnCount(); n != 0 {
					t.Errorf("%s NSM still holds %d connections", name, n)
				}
			}
			if m := c.h1.Engine.Mappings(); m != 0 {
				t.Errorf("client engine holds %d mappings, want 0", m)
			}
			if m := c.h2.Engine.Mappings(); m != 1 {
				t.Errorf("server engine holds %d mappings, want 1 (the listener)", m)
			}
		})
	}
}

// TestPriorityCloseStaysBehindData: on priority rings a close must not
// overtake the stream it ends. The server sends 256 KiB and closes at
// once, and the client reads to EOF. Priority rings on the server's host
// put the sender's OpClose behind its OpSend jobs; on the client's host,
// the receiver's OpConnClosed behind its OpNewData events.
func TestPriorityCloseStaysBehindData(t *testing.T) {
	const size = 256 << 10
	for _, tc := range []struct{ name, host string }{
		{"sender-jobs", "host2"},
		{"receiver-events", "host1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, func(cfg *HostConfig) {
				if cfg.Name == tc.host {
					cfg.Chan.Queue = nkqueue.Config{Priority: true}
				}
			})
			vma, vmb := c.nkPair(t, "cubic", "cubic")
			srv, cli := vmb.Guest, vma.Guest

			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i * 7)
			}
			lfd := srv.Socket(guestlib.Callbacks{})
			srv.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
				fd, ok := srv.Accept(lfd)
				if !ok {
					return
				}
				if n := srv.Send(fd, payload); n != size {
					t.Errorf("server sent %d of %d bytes", n, size)
				}
				srv.Close(fd)
			}})
			if err := srv.Listen(lfd, 80, 4); err != nil {
				t.Fatal(err)
			}

			var rcvd []byte
			eof := false
			var cfd int32
			buf := make([]byte, 64<<10)
			cfd = cli.Socket(guestlib.Callbacks{OnReadable: func() {
				for !eof {
					n, end := cli.Recv(cfd, buf)
					rcvd = append(rcvd, buf[:n]...)
					if end {
						eof = true
						cli.Close(cfd)
					}
					if n == 0 {
						return
					}
				}
			}})
			if err := cli.Connect(cfd, ipVMB, 80); err != nil {
				t.Fatal(err)
			}
			c.loop.RunFor(2 * time.Second)

			if !eof {
				t.Fatal("client never saw EOF")
			}
			if len(rcvd) != size {
				t.Fatalf("client read %d of %d bytes before EOF", len(rcvd), size)
			}
			for i := range rcvd {
				if rcvd[i] != payload[i] {
					t.Fatalf("byte %d differs", i)
				}
			}
		})
	}
}

// TestMappingRetiresOnLastElement drives one mapping through the engine
// alone and checks, after every element, that it retires exactly when the
// last element that could name it has been translated — and that every
// element translates.
func TestMappingRetiresOnLastElement(t *testing.T) {
	const fd, cid = 5, 77
	type step struct {
		toNSM bool // a VM job; otherwise an NSM completion or event
		e     nqe.Element
	}
	job := func(op nqe.Op) step {
		return step{true, nqe.Element{Op: op, Source: nqe.FromVM, VMID: 1, FD: fd}}
	}
	fromNSM := func(op nqe.Op, flags nqe.Flags) step {
		return step{false, nqe.Element{Op: op, Source: nqe.FromNSM, NSMID: 2, CID: cid, Flags: flags}}
	}
	closed := fromNSM(nqe.OpConnClosed, 0)
	// newEngine builds an engine with fd mapped to cid and returns a
	// feeder that pushes one step, lets the engine pump it and discards
	// what came out.
	newEngine := func(t *testing.T) (*CoreEngine, func(step)) {
		loop := sim.NewLoop()
		ch := asymPair(t, 64, 64)
		ce := NewCoreEngine(loop, EngineConfig{})
		ce.Attach(ch, 1, 2, 0, 0, 0)
		installMapping(t, loop, ch, 1, fd, cid)
		return ce, func(st step) {
			e := st.e
			switch {
			case st.toNSM:
				ch.VMJob.Push(&e)
				ch.KickEngineVM(0)
			case e.Flags&nqe.FlagCompletion != 0:
				ch.NSMCompletion.Push(&e)
				ch.KickEngineNSM(0)
			default:
				ch.NSMReceive.Push(&e)
				ch.KickEngineNSM(0)
			}
			loop.RunFor(time.Millisecond)
			for _, q := range []*nkqueue.Queue{ch.NSMJob, ch.VMCompletion, ch.VMReceive} {
				for q.Pop(&e) {
				}
			}
		}
	}
	for _, tc := range []struct {
		name  string
		steps []step
		last  int // the step after which the mapping is gone
	}{
		{"close, then conn-closed", []step{job(nqe.OpClose), closed}, 1},
		{"conn-closed, then close", []step{closed, job(nqe.OpRecv), job(nqe.OpClose)}, 2},
		{"send completion after both closes", []step{
			job(nqe.OpSend), job(nqe.OpClose), closed, fromNSM(nqe.OpSend, nqe.FlagCompletion),
		}, 3},
		{"option answer after both closes", []step{
			job(nqe.OpSetSockOpt), closed, job(nqe.OpClose), fromNSM(nqe.OpSetSockOpt, nqe.FlagCompletion),
		}, 3},
		// A listener whose close announced no accepts (Arg1 0) retires
		// like any socket; TestListenerRetiresByAcceptCount has the rest.
		{"listener", []step{
			job(nqe.OpListen), job(nqe.OpClose), closed, fromNSM(nqe.OpListen, nqe.FlagCompletion),
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ce, feed := newEngine(t)
			before := ce.Stats().Translated
			for i, st := range tc.steps {
				feed(st)
				want := 1
				if i >= tc.last {
					want = 0
				}
				if n := ce.Mappings(); n != want {
					t.Fatalf("after step %d (%v): %d mappings, want %d", i, st.e.Op, n, want)
				}
			}
			if n := uint64(ce.Stats().Translated - before); n != uint64(len(tc.steps)) {
				t.Errorf("translated %d of %d elements", n, len(tc.steps))
			}
			if n := ce.Stats().BadElements; n != 0 {
				t.Errorf("%d bad elements", n)
			}
		})
	}
}

// TestHandshakeCompletesAfterListenerClose: the guest closes a listener
// while a handshake toward it is half done — the server NSM has sent its
// SYN-ACK, and the client's final ACK, with the client's first data
// behind it, is lost. The retransmission completes the handshake into
// the closed listener after the listener's OpConnClosed has retired its
// mapping. ServiceLib resets that connection itself: an OpNewConn naming
// the listener now would be a bad element, and the connection would
// stay open in the NSM with no descriptor to close it.
func TestHandshakeCompletesAfterListenerClose(t *testing.T) {
	c := newCluster(t, nil)
	vma, vmb := c.nkPair(t, "cubic", "cubic")
	srv, cli := vmb.Guest, vma.Guest
	lfd := srv.Socket(guestlib.Callbacks{})
	if err := srv.Listen(lfd, 80, 64); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(time.Millisecond)

	var fd int32
	var closeErr error = errSentinel
	fd = cli.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) {
			if err == nil {
				cli.Send(fd, []byte("hello"))
			}
		},
		OnClose: func(err error) {
			closeErr = err
			cli.Close(fd)
		},
	})
	if err := cli.Connect(fd, ipVMB, 80); err != nil {
		t.Fatal(err)
	}
	// The SYN has reached the server NSM; cut the client→server link
	// before the final ACK can cross it.
	stepUntil(t, c, func() bool { return vmb.NSM.Stack.ConnCount() == 1 })
	c.l12.SetDown(true)
	srv.Close(lfd)
	c.loop.RunFor(10 * time.Millisecond)
	if n := vmb.Service.Stats().Accepts; n != 0 {
		t.Fatalf("the NSM accepted %d connections before the listener closed", n)
	}
	if n := c.h2.Engine.Mappings(); n != 0 {
		t.Fatalf("the server engine holds %d mappings after the listener's close, want 0", n)
	}
	c.l12.SetDown(false)
	c.loop.RunFor(3 * time.Second)

	if closeErr == errSentinel || closeErr == nil {
		t.Errorf("client OnClose = %v, want a reset", closeErr)
	}
	for _, h := range []*Host{c.h1, c.h2} {
		if n := h.Engine.Mappings(); n != 0 {
			t.Errorf("%s engine holds %d mappings, want 0", h.cfg.Name, n)
		}
		if n := h.Engine.Stats().BadElements; n != 0 {
			t.Errorf("%s engine counted %d bad elements, want 0", h.cfg.Name, n)
		}
	}
	for _, vm := range []*VM{vma, vmb} {
		if n := vm.NSM.Stack.ConnCount(); n != 0 {
			t.Errorf("%s NSM holds %d connections, want 0", vm.Name, n)
		}
		for _, pair := range vm.Guest.Pairs() {
			if n := pair.Pages.LiveRefs(); n != 0 {
				t.Errorf("%s: %d live chunk refs, want 0", vm.Name, n)
			}
		}
	}
}
