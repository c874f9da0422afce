package hypervisor

import (
	"testing"
	"time"

	"netkernel/internal/guestlib"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/sim"
)

// coalesceDelay mirrors servicelib's receive coalescing window: how long
// a partly filled receive chunk may wait for more bytes mid-burst.
const coalesceDelay = 5 * time.Microsecond

// pushPair is an established connection from vma's guest to vmb's,
// with the receiving guest recording the arrival of every OpNewData.
type pushPair struct {
	c        *cluster
	vma, vmb *VM
	fd       int32     // the sending guest's socket
	srvConn  *tcp.Conn // the receiving NSM's connection
	// arrivals holds, per OnReadable at the receiving guest (one per
	// OpNewData), its virtual time and the bytes Recv found.
	arrivals []arrival
}

type arrival struct {
	at sim.Time
	n  int
}

func newPushPair(t *testing.T) *pushPair {
	t.Helper()
	p := &pushPair{c: newCluster(t, nil)}
	p.vma, p.vmb = p.c.nkPair(t, "cubic", "cubic")
	srv, cli := p.vmb.Guest, p.vma.Guest
	buf := make([]byte, 64<<10)
	var lfd int32
	lfd = srv.Socket(guestlib.Callbacks{OnAcceptable: func() {
		for fd, ok := srv.Accept(lfd); ok; fd, ok = srv.Accept(lfd) {
			srv.SetCallbacks(fd, guestlib.Callbacks{OnReadable: func() {
				a := arrival{at: p.c.loop.Now()}
				for m, _ := srv.Recv(fd, buf); m > 0; m, _ = srv.Recv(fd, buf) {
					a.n += m
				}
				p.arrivals = append(p.arrivals, a)
			}})
		}
	}})
	if err := srv.Listen(lfd, 80, 4); err != nil {
		t.Fatal(err)
	}
	established := false
	p.fd = cli.Socket(guestlib.Callbacks{OnEstablished: func(err error) {
		if err != nil {
			t.Fatalf("connect: %v", err)
		}
		established = true
	}})
	if err := cli.Connect(p.fd, ipVMB, 80); err != nil {
		t.Fatal(err)
	}
	p.c.loop.RunFor(50 * time.Millisecond) // handshake, then every timer it armed goes quiet
	if !established {
		t.Fatal("connection did not establish")
	}
	p.vmb.NSM.Stack.Conns(func(c *tcp.Conn) { p.srvConn = c })
	if p.srvConn == nil {
		t.Fatal("receiving NSM holds no connection")
	}
	return p
}

// send writes size bytes from the sending guest and steps the loop until
// the receiving guest has read them all. It returns when the receiving
// NSM's TCP took the last byte.
func (p *pushPair) send(t *testing.T, size int) (tcpAt sim.Time) {
	t.Helper()
	want := p.srvConn.Stats().BytesRcvd + uint64(size)
	if n := p.vma.Guest.Send(p.fd, make([]byte, size)); n != size {
		t.Fatalf("Send took %d of %d bytes", n, size)
	}
	got := 0
	for got < size {
		if !p.c.loop.Step() {
			t.Fatal("loop ran dry")
		}
		if tcpAt == 0 && p.srvConn.Stats().BytesRcvd >= want {
			tcpAt = p.c.loop.Now()
		}
		got = 0
		for _, a := range p.arrivals {
			got += a.n
		}
	}
	return tcpAt
}

// One 64 B send is one PSH segment. Its bytes leave the receiving NSM in
// the event that delivered them to TCP instead of after a coalescing
// window, so they reach the peer guest less than coalesceDelay after the
// NSM's TCP took them — 5 µs sooner than when every partial chunk waited
// out the window.
func TestSmallSendSkipsCoalescingWindow(t *testing.T) {
	p := newPushPair(t)
	t0 := p.c.loop.Now()
	tcpAt := p.send(t, 64)
	if len(p.arrivals) != 1 || p.arrivals[0].n != 64 {
		t.Fatalf("arrivals %+v, want one of 64 B", p.arrivals)
	}
	at := p.arrivals[0].at
	t.Logf("one-way %v, of which %v from the receiving NSM's TCP to the guest", at.Sub(t0), at.Sub(tcpAt))
	if gap := at.Sub(tcpAt); gap >= coalesceDelay {
		t.Errorf("the message reached the guest %v after the NSM's TCP took it: it waited out the %v coalescing window", gap, coalesceDelay)
	}
}

// A write of four segments carries PSH on its last segment alone (the
// one that empties the send buffer). The first three open the receive
// chunk mid-burst and so wait; the fourth ends the burst, and the whole
// write reaches the guest as one OpNewData, not one per segment.
func TestPushEndsBurstAsOneChunk(t *testing.T) {
	p := newPushPair(t)
	mss := p.vmb.NSM.Stack.MSS()
	size := 3*mss + 100
	segs := p.srvConn.Stats().SegsRcvd
	p.send(t, size)
	if n := p.srvConn.Stats().SegsRcvd - segs; n != 4 {
		t.Fatalf("the write arrived in %d segments, want 4", n)
	}
	if len(p.arrivals) != 1 || p.arrivals[0].n != size {
		t.Fatalf("arrivals %+v, want one OpNewData of %d B", p.arrivals, size)
	}
}
