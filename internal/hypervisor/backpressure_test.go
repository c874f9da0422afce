package hypervisor

import (
	"testing"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/nkqueue"
)

// tinyServerRings gives host2 — the server side — 4-slot rings, so every
// burst toward or from the server application overruns a ring and rides
// the stall backlogs.
func tinyServerRings(cfg *HostConfig) {
	if cfg.Name == "host2" {
		cfg.Chan.Queue = nkqueue.Config{Slots: 4}
	}
}

// TestAcceptBurstThroughTinyRings: twelve connections land on a listener
// whose channel holds four nqes per ring, and nobody sends a byte. The
// OpNewConn events that did not fit park in ServiceLib's backlog; moving
// them into the ring later must wake the engine, or the NSM holds
// accepted connections its guest never hears of.
func TestAcceptBurstThroughTinyRings(t *testing.T) {
	c := newCluster(t, tinyServerRings)
	vma, vmb := c.nkPair(t, "cubic", "cubic")

	srv := vmb.Guest
	accepted := 0
	lfd := srv.Socket(guestlib.Callbacks{})
	srv.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
		for {
			fd, ok := srv.Accept(lfd)
			if !ok {
				return
			}
			srv.SetCallbacks(fd, guestlib.Callbacks{})
			accepted++
		}
	}})
	if err := srv.Listen(lfd, 80, 64); err != nil {
		t.Fatal(err)
	}
	c.loop.RunFor(time.Millisecond)

	const dialers = 12
	cli := vma.Guest
	established := 0
	for i := 0; i < dialers; i++ {
		fd := cli.Socket(guestlib.Callbacks{OnEstablished: func(err error) {
			if err == nil {
				established++
			}
		}})
		if err := cli.Connect(fd, ipVMB, 80); err != nil {
			t.Fatal(err)
		}
	}
	c.loop.RunFor(2 * time.Second)

	if established != dialers {
		t.Fatalf("%d of %d connections established", established, dialers)
	}
	if got := vmb.Service.Stats().Accepts; got != dialers {
		t.Fatalf("NSM accepted %d of %d connections", got, dialers)
	}
	if accepted != dialers {
		t.Fatalf("server application accepted %d of %d connections the NSM holds", accepted, dialers)
	}
}

// TestRecvCreditSurvivesFullJobRing: an 8 MiB echo through 4-slot rings
// makes the server's Recv calls outrun its job ring, so OpRecv credits
// find it full. A credit that is dropped instead of parked shrinks the
// shm receive window for the life of the connection; once the server
// stops reading, what the NSM can still park at the guest shows how much
// window is left.
func TestRecvCreditSurvivesFullJobRing(t *testing.T) {
	const window = 1 << 20
	c := newCluster(t, func(cfg *HostConfig) {
		cfg.ShmWindow = window
		tinyServerRings(cfg)
	})
	vma, vmb := c.nkPair(t, "cubic", "cubic")

	srv := vmb.Guest
	reading := true
	var sfd int32 = -1
	var echo []byte
	buf := make([]byte, 64<<10)
	serve := func() {
		for reading {
			n, _ := srv.Recv(sfd, buf)
			if n == 0 {
				break
			}
			echo = append(echo, buf[:n]...)
		}
		for len(echo) > 0 {
			n := srv.Send(sfd, echo)
			if n == 0 {
				return
			}
			echo = echo[n:]
		}
	}
	lfd := srv.Socket(guestlib.Callbacks{})
	srv.SetCallbacks(lfd, guestlib.Callbacks{OnAcceptable: func() {
		fd, ok := srv.Accept(lfd)
		if !ok {
			return
		}
		sfd = fd
		srv.SetCallbacks(fd, guestlib.Callbacks{OnReadable: serve, OnWritable: serve})
		serve()
	}})
	if err := srv.Listen(lfd, 80, 8); err != nil {
		t.Fatal(err)
	}

	cli := vma.Guest
	payload := make([]byte, 64<<10)
	toSend, echoed := 8<<20, 0
	var cfd int32
	send := func() {
		for toSend > 0 {
			n := cli.Send(cfd, payload[:min(len(payload), toSend)])
			if n == 0 {
				return
			}
			toSend -= n
		}
	}
	cfd = cli.Socket(guestlib.Callbacks{
		OnEstablished: func(err error) {
			if err == nil {
				send()
			}
		},
		OnWritable: send,
		OnReadable: func() {
			for {
				n, _ := cli.Recv(cfd, buf)
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
	c.loop.RunFor(5 * time.Second)
	if echoed != 8<<20 {
		t.Fatalf("echoed %d of %d bytes through 4-slot rings", echoed, 8<<20)
	}

	// The server application stops reading: the NSM keeps delivering
	// until the shm receive window is full, and no further.
	reading = false
	toSend = 2 << 20
	send()
	c.loop.RunFor(5 * time.Second)
	if got := srv.ReadAvailable(sfd); got != window {
		t.Fatalf("server holds %d unread bytes, want the full %d-byte shm window: receive credits were lost", got, window)
	}
}

// TestListenerCloseRacesAccept closes a listener while its accepts are
// in flight: the NSM has accepted every connection and emitted the
// OpNewConn events, but none has reached the guest when the application
// closes the listener. Close sweeps only what the listener already
// holds, so each late arrival must be closed on delivery — or its NSM
// connection, its peer and its engine mapping live forever.
func TestListenerCloseRacesAccept(t *testing.T) {
	for _, tc := range []struct {
		name    string
		dialers int
		mutate  func(*HostConfig)
	}{
		{"one shard", 1, nil},
		{"four shards, 4-slot server rings", 12, func(cfg *HostConfig) {
			cfg.Shards = 4
			tinyServerRings(cfg)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, tc.mutate)
			vma, vmb := c.nkPair(t, "cubic", "cubic")
			srv, cli := vmb.Guest, vma.Guest
			lfd := srv.Socket(guestlib.Callbacks{})
			if err := srv.Listen(lfd, 80, 64); err != nil {
				t.Fatal(err)
			}
			c.loop.RunFor(time.Millisecond)
			for i := 0; i < tc.dialers; i++ {
				var fd int32
				fd = cli.Socket(guestlib.Callbacks{OnClose: func(error) { cli.Close(fd) }})
				if err := cli.Connect(fd, ipVMB, 80); err != nil {
					t.Fatal(err)
				}
			}
			for uint64(vmb.Service.Stats().Accepts) < uint64(tc.dialers) {
				if !c.loop.Step() {
					t.Fatal("loop ran dry before the NSM accepted every connection")
				}
			}
			srv.Close(lfd)
			c.loop.RunFor(3 * time.Second)
			if n := vmb.NSM.Stack.ConnCount(); n != 0 {
				t.Errorf("server NSM holds %d connections", n)
			}
			if n := vma.NSM.Stack.ConnCount(); n != 0 {
				t.Errorf("client NSM holds %d connections", n)
			}
			if n := c.h2.Engine.Mappings(); n != 0 {
				t.Errorf("server engine holds %d fd↔cID mappings", n)
			}
		})
	}
}
