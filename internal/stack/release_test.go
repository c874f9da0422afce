package stack

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"netkernel/internal/proto/ipv4"
	"netkernel/internal/proto/tcp"
)

// Connection objects recycle through the stack's free list (ReleaseConn)
// on the strength of one rule: a connection calls back nothing — no
// callback, no receive sink, no Output — once it has ended. life is one
// incarnation as its owner sees it. It counts its callback and sink
// invocations (calls) and its Outputs, and late counts the calls that
// came after its OnClose (or its Detach).
type life struct {
	name           string
	conn           *tcp.Conn
	calls, outputs int
	late           int
	ended          bool
	// then runs at the end of the incarnation's OnClose.
	then func()
}

func (l *life) note() {
	l.calls++
	if l.ended {
		l.late++
	}
}

// lifeTracker plays the owner of every connection on a set of stacks:
// it gives each incarnation its own callbacks, releases it from its
// OnClose, and counts the Outputs of every object the stacks build.
type lifeTracker struct {
	t     *testing.T
	lives []*life
	seen  map[*tcp.Conn]int // incarnations per object
	// cur is the incarnation each counted object was last adopted into;
	// lateOut counts Outputs from an object whose connection had ended.
	cur     map[*tcpSock]*life
	lateOut int
}

// seed puts n objects with a counting Output on s's free list, ahead of
// any the stack would build itself.
func (tr *lifeTracker) seed(s *Stack, n int) {
	for i := 0; i < n; i++ {
		k := &tcpSock{s: s}
		k.onEstablished = k.handshakeDone
		k.output = func(h *tcp.Header, payload []byte, ecn bool) {
			if k.conn.State() == tcp.StateClosed {
				tr.lateOut++
			} else if l := tr.cur[k]; l != nil && !l.ended {
				l.outputs++ // before adoption (a SYN, a SYN-ACK) they count for nobody
			}
			k.transmit(h, payload, ecn)
		}
		tr.cur[k] = nil
		s.recycle(k)
	}
}

func (tr *lifeTracker) newLife(name string) *life {
	l := &life{name: name}
	tr.lives = append(tr.lives, l)
	return l
}

func (l *life) opts() SocketOptions {
	return SocketOptions{
		OnEstablished: func(error) { l.note() },
		OnReadable:    func() { l.note() },
		OnWritable:    func() { l.note() },
	}
}

// adopt takes ownership of a connection the stack just built into
// incarnation l, giving it l's receive sink.
func (tr *lifeTracker) adopt(l *life, c *tcp.Conn) *tcp.Conn {
	tr.t.Helper()
	k := c.Owner().(*tcpSock)
	if _, ok := tr.cur[k]; !ok {
		tr.t.Fatalf("%s: built on an object the tracker does not count; seed more", l.name)
	}
	tr.cur[k] = l
	l.conn = c
	tr.seen[c]++
	c.SetReceiveSink(func(p []byte) int {
		l.note()
		return 0 // leave the bytes in the receive buffer
	})
	return c
}

// closeHook is the OnClose every tracked incarnation gets.
func (tr *lifeTracker) closeHook(l *life, s *Stack) func(error) {
	return func(error) {
		l.note()
		l.ended = true
		s.ReleaseConn(l.conn)
		if l.then != nil {
			l.then()
		}
	}
}

func (tr *lifeTracker) dial(l *life, s *Stack, port uint16) *tcp.Conn {
	tr.t.Helper()
	o := l.opts()
	o.OnClose = tr.closeHook(l, s)
	c, err := s.Dial(tcp.AddrPort{Addr: ipB, Port: port}, o)
	if err != nil {
		tr.t.Fatalf("%s: dial: %v", l.name, err)
	}
	return tr.adopt(l, c)
}

// listen accepts every connection on port into a fresh incarnation and
// hands it to got.
func (tr *lifeTracker) listen(s *Stack, port uint16, got func(*tcp.Conn, *life)) {
	tr.t.Helper()
	l, err := s.Listen(port, 16, SocketOptions{})
	if err != nil {
		tr.t.Fatal(err)
	}
	l.OnAcceptable = func() {
		for {
			c, ok := l.Accept()
			if !ok {
				return
			}
			lf := tr.newLife(fmt.Sprintf("accepted on %d", port))
			o := lf.opts()
			c.SetCallbacks(o.OnReadable, o.OnWritable, tr.closeHook(lf, s))
			got(tr.adopt(lf, c), lf)
		}
	}
}

func TestReleasedConnCallsNothingAfterOnClose(t *testing.T) {
	p := newPair(t, fastLink(), nil)
	tr := &lifeTracker{t: t, seen: map[*tcp.Conn]int{}, cur: map[*tcpSock]*life{}}
	tr.seed(p.a, 16)
	tr.seed(p.b, 16)
	var srv *tcp.Conn
	var srvLife *life
	tr.listen(p.b, 80, func(c *tcp.Conn, l *life) { srv, srvLife = c, l })
	step := func(d time.Duration) { p.loop.RunFor(d) }
	established := func(name string, c *tcp.Conn) {
		t.Helper()
		if c.State() != tcp.StateEstablished || srv == nil || srv.State() != tcp.StateEstablished {
			t.Fatalf("%s: not established (client %v)", name, c.State())
		}
	}
	msg := make([]byte, 3000)

	// A clean exchange and close; the client lingers in TIME_WAIT.
	c := tr.dial(tr.newLife("clean"), p.a, 80)
	step(20 * time.Millisecond)
	established("clean", c)
	c.Write(msg)
	srv.Write(msg)
	step(20 * time.Millisecond)
	c.Close()
	srv.Close()
	step(300 * time.Millisecond)

	// RST: nobody listens on port 81.
	tr.dial(tr.newLife("refused"), p.a, 81)
	step(20 * time.Millisecond)

	// The peer aborts: its RST resets the client.
	srv = nil
	c = tr.dial(tr.newLife("reset by peer"), p.a, 80)
	step(20 * time.Millisecond)
	established("reset", c)
	srv.Abort()
	step(20 * time.Millisecond)

	// A redial from the OnClose of a connection the peer resets runs
	// inside that connection's Input: it gets another object, since the
	// ended one is rebuilt only once its Input has returned.
	srv = nil
	lf := tr.newLife("redial from OnClose")
	c = tr.dial(lf, p.a, 80)
	step(20 * time.Millisecond)
	established("redial from OnClose", c)
	var again *tcp.Conn
	lf.then = func() { again = tr.dial(tr.newLife("redialed"), p.a, 80) }
	srv.Abort()
	step(20 * time.Millisecond)
	if again == nil || again == c {
		t.Fatalf("redial from OnClose got %p, the ending connection is %p", again, c)
	}
	if again.State() != tcp.StateEstablished {
		t.Fatalf("redialed connection %v", again.State())
	}
	again.Abort()
	step(20 * time.Millisecond)

	// The client aborts.
	srv = nil
	c = tr.dial(tr.newLife("abort"), p.a, 80)
	step(20 * time.Millisecond)
	established("abort", c)
	c.Abort()
	step(20 * time.Millisecond)

	// Kill: the client dies silently; the server is aborted after it.
	srv = nil
	c = tr.dial(tr.newLife("kill"), p.a, 80)
	step(20 * time.Millisecond)
	established("kill", c)
	c.Kill(errors.New("killed"))
	srv.Abort()
	step(20 * time.Millisecond)

	// RTO give-up: the client's data never gets through.
	srv = nil
	c = tr.dial(tr.newLife("timeout"), p.a, 80)
	step(20 * time.Millisecond)
	established("timeout", c)
	p.linkAB.SetDown(true)
	c.Write(msg)
	step(10 * time.Minute)
	p.linkAB.SetDown(false)
	if c.State() != tcp.StateClosed {
		t.Fatalf("timeout: client still %v", c.State())
	}
	srv.Abort()
	step(20 * time.Millisecond)

	// TIME_WAIT recycling: both ends linger after a simultaneous close,
	// then a redial on the same port discards the client's wait and its
	// SYN assassinates the server's, inside the server's Input.
	srv = nil
	c = tr.dial(tr.newLife("simultaneous close"), p.a, 80)
	step(20 * time.Millisecond)
	established("simultaneous close", c)
	c.Close()
	srv.Close()
	step(20 * time.Millisecond)
	if c.State() != tcp.StateTimeWait || srv.State() != tcp.StateTimeWait {
		t.Fatalf("simultaneous close: %v / %v, want TIME_WAIT both", c.State(), srv.State())
	}
	p.a.nextPort = c.LocalAddr().Port
	srv = nil
	c = tr.dial(tr.newLife("recycled port"), p.a, 80)
	step(20 * time.Millisecond)
	established("recycled port", c)

	// Migration: the server side moves to a successor stack. The donor's
	// connection is detached — it gets no OnClose — and the restored one
	// is built on the successor's free list.
	b2 := New(p.b.cfg)
	b2.AttachInterface(p.b.iface.MAC, ipB, 1500, 24, ipv4.Addr{}, p.b.iface.tx)
	tr.seed(b2, 16)
	tr.listen(b2, 80, func(c *tcp.Conn, l *life) { srv, srvLife = c, l })
	snaps := p.b.DrainSnapshots()
	srvLife.ended = true // detached: anything later is late
	p.b.Kill()
	p.nicB.SetHandler(b2.DeliverFrame)
	var moved *tcp.Conn
	for _, snap := range snaps {
		if snap.State() != tcp.StateEstablished {
			continue
		}
		lf := tr.newLife("restored")
		o := lf.opts()
		o.OnClose = tr.closeHook(lf, b2)
		rc, err := b2.RestoreConn(snap, o)
		if err != nil {
			t.Fatal(err)
		}
		moved = tr.adopt(lf, rc)
	}
	if moved == nil {
		t.Fatal("no established connection migrated")
	}
	c.Write(msg)
	step(20 * time.Millisecond)
	moved.Close()
	c.Close()
	step(300 * time.Millisecond)
	// The restored object, released on the successor, serves its next
	// accept.
	srv = nil
	c = tr.dial(tr.newLife("after migration"), p.a, 80)
	step(20 * time.Millisecond)
	established("after migration", c)

	// Stack death: every live connection ends at once.
	p.a.Kill()
	b2.Kill()
	step(time.Second)

	reused := 0
	for _, n := range tr.seen {
		if n > 1 {
			reused++
		}
	}
	outputs := 0
	for _, l := range tr.lives {
		outputs += l.outputs
		t.Logf("%-20s %2d callbacks, %2d Outputs", l.name, l.calls, l.outputs)
		if l.late != 0 {
			t.Errorf("%s: %d calls after the incarnation ended", l.name, l.late)
		}
	}
	if tr.lateOut != 0 {
		t.Errorf("%d Outputs from a connection that had ended", tr.lateOut)
	}
	if reused < 3 || outputs == 0 {
		t.Errorf("only %d objects served more than one incarnation (%d Outputs)", reused, outputs)
	}
}
