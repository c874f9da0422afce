package stack

import (
	"bytes"
	"testing"
	"time"

	"netkernel/internal/proto/tcp"
)

// TestEphemeralPortRecycleAcrossTimeWait drives the RFC 6191-flavoured
// port recycle end to end: a connection closes simultaneously on both
// sides (so BOTH stacks hold TIME_WAIT for the pair), the client's
// ephemeral allocator wraps back onto the port, and a fresh dial must
// (a) discard the local TIME_WAIT and pin its ISS above the dead
// incarnation's final sequence, and (b) present the server's lingering
// TIME_WAIT with a SYN it can validate as genuinely new, assassinating
// the wait and establishing through the listener — with the new stream
// byte-exact.
func TestEphemeralPortRecycleAcrossTimeWait(t *testing.T) {
	p := newPair(t, fastLink(), nil)
	l, err := p.b.Listen(80, 16, SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.a.Dial(tcp.AddrPort{Addr: ipB, Port: 80}, SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.loop.RunFor(200 * time.Millisecond)
	srv, ok := l.Accept()
	if !ok {
		t.Fatal("no accepted connection")
	}

	// Push the sequence space forward so the recycled ISS has something
	// real to clear.
	payload := bytes.Repeat([]byte("abcdefgh"), 1024)
	c.Write(payload)
	p.loop.RunFor(200 * time.Millisecond)
	got := make([]byte, 0, len(payload))
	buf := make([]byte, 4096)
	for {
		n, _ := srv.Read(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("first incarnation corrupted: %d of %d bytes", len(got), len(payload))
	}

	// Simultaneous close: FINs cross, both ends traverse CLOSING into
	// TIME_WAIT.
	c.Close()
	srv.Close()
	p.loop.RunFor(20 * time.Millisecond) // < 2·MSL (100ms): both still linger
	if c.State() != tcp.StateTimeWait || srv.State() != tcp.StateTimeWait {
		t.Fatalf("states after simultaneous close: client=%v server=%v, want TIME_WAIT/TIME_WAIT", c.State(), srv.State())
	}
	oldPort := c.LocalAddr().Port
	oldFinal := c.FinalSeq()

	// Wrap the allocator back onto the lingering pair and redial.
	p.a.nextPort = oldPort
	c2, err := p.a.Dial(tcp.AddrPort{Addr: ipB, Port: 80}, SocketOptions{})
	if err != nil {
		t.Fatalf("redial on recycled port: %v", err)
	}
	if c2.LocalAddr().Port != oldPort {
		t.Fatalf("dial took port %d, want recycled %d", c2.LocalAddr().Port, oldPort)
	}
	if c.State() != tcp.StateClosed {
		t.Fatalf("local TIME_WAIT predecessor not discarded: %v", c.State())
	}
	snap := c2.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot for recycled dial")
	}
	if delta := snap.ISS() - oldFinal; delta < recycleISSMargin {
		t.Fatalf("recycled ISS only %d beyond predecessor's final seq, want ≥ %d", delta, recycleISSMargin)
	}

	p.loop.RunFor(200 * time.Millisecond)
	if c2.State() != tcp.StateEstablished {
		t.Fatalf("recycled connection state %v, want ESTABLISHED (server TIME_WAIT should be assassinated by the new SYN)", c2.State())
	}
	srv2, ok := l.Accept()
	if !ok {
		t.Fatal("listener never produced the recycled connection")
	}
	if srv.State() != tcp.StateClosed {
		t.Fatalf("server TIME_WAIT survived a valid new SYN: %v", srv.State())
	}

	// The new incarnation carries data byte-exactly.
	payload2 := bytes.Repeat([]byte("01234567"), 512)
	c2.Write(payload2)
	p.loop.RunFor(200 * time.Millisecond)
	got = got[:0]
	for {
		n, _ := srv2.Read(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, payload2) {
		t.Fatalf("recycled incarnation corrupted: %d of %d bytes", len(got), len(payload2))
	}
}

// TestTimeWaitIgnoresStaleSYN is the negative half of the seq
// validation: a SYN whose sequence lies inside what the TIME_WAIT
// incarnation already received is a delayed duplicate, not a recycle —
// it must neither assassinate the wait nor reach the listener.
func TestTimeWaitIgnoresStaleSYN(t *testing.T) {
	p := newPair(t, fastLink(), nil)
	l, err := p.b.Listen(80, 16, SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.a.Dial(tcp.AddrPort{Addr: ipB, Port: 80}, SocketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p.loop.RunFor(200 * time.Millisecond)
	srv, ok := l.Accept()
	if !ok {
		t.Fatal("no accepted connection")
	}
	c.Write(bytes.Repeat([]byte("x"), 4096))
	p.loop.RunFor(100 * time.Millisecond)
	buf := make([]byte, 8192)
	for n, _ := srv.Read(buf); n > 0; n, _ = srv.Read(buf) {
	}

	c.Close()
	srv.Close()
	p.loop.RunFor(20 * time.Millisecond)
	if srv.State() != tcp.StateTimeWait {
		t.Fatalf("server state %v, want TIME_WAIT", srv.State())
	}

	// Replay a "delayed" SYN from the old incarnation's sequence space
	// straight into the server stack.
	stale := tcp.Header{
		SrcPort: c.LocalAddr().Port, DstPort: 80,
		Flags: tcp.FlagSYN, Seq: c.FinalSeq() - 1000, Window: 65535,
	}
	p.b.processTCP(ipA, stale.Marshal(ipA, ipB, nil), false)
	p.loop.RunFor(10 * time.Millisecond)

	if srv.State() != tcp.StateTimeWait {
		t.Fatalf("stale SYN assassinated TIME_WAIT: state %v", srv.State())
	}
	if _, ok := l.Accept(); ok {
		t.Fatal("stale SYN reached the listener")
	}
}
