package tcp

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
)

// scanOutstanding is outstanding() as it was computed before the
// scoreboard kept a running sacked-byte count: a scan of every tracked
// segment. The tests hold the incremental value to it.
func (c *Conn) scanOutstanding() int {
	out := seqDiff(c.sndNxt, c.sndUna)
	if c.finSent {
		out--
	}
	for i := 0; i < c.inflight.len(); i++ {
		if s := c.inflight.at(i); s.sacked {
			out -= s.length
		}
	}
	if out < 0 {
		out = 0
	}
	return out
}

// checkScoreboard asserts the scoreboard's invariants: the running
// count equals a scan, is never negative, never exceeds the tracked
// bytes, and — unless a hostile cumulative ACK split the oldest segment —
// never exceeds sndNxt − sndUna.
func checkScoreboard(t testing.TB, c *Conn) {
	t.Helper()
	b := &c.inflight
	scan, tracked := 0, 0
	for i := 0; i < b.len(); i++ {
		s := b.at(i)
		tracked += s.length
		if s.sacked {
			scan += s.length
		}
	}
	if b.sacked != scan {
		t.Fatalf("scoreboard: sacked count %d, scan finds %d", b.sacked, scan)
	}
	if b.sacked < 0 || b.sacked > tracked {
		t.Fatalf("scoreboard: sacked count %d outside [0, %d tracked]", b.sacked, tracked)
	}
	if b.len() > 0 && b.at(0).seq == c.sndUna && b.sacked > seqDiff(c.sndNxt, c.sndUna) {
		t.Fatalf("scoreboard: sacked count %d above sndNxt-sndUna = %d", b.sacked, seqDiff(c.sndNxt, c.sndUna))
	}
	if got, want := c.outstanding(), c.scanOutstanding(); got != want {
		t.Fatalf("outstanding() = %d, scan says %d", got, want)
	}
}

// checkLive asserts that a connection that has not ended passes the
// check Restore puts a snapshot to.
func checkLive(t testing.TB, c *Conn) {
	t.Helper()
	if c.closed {
		return
	}
	if err := c.check(c.inflight.appendTo(nil)); err != nil {
		t.Fatalf("live connection fails the snapshot check: %v", err)
	}
}

// input delivers a segment and cross-checks the receiving connection's
// scoreboard and state block, so every test built on testNet — random
// loss, single drop, black hole and abort, reordering — holds the
// incremental count to the scan, and the connection to what Restore
// accepts, after every Input.
func (n *testNet) input(c *Conn, h *Header, payload []byte, ce bool) {
	c.Input(h, payload, ce)
	checkScoreboard(n.t, c)
	checkLive(n.t, c)
}

// A window larger than the ring's first allocation makes it grow while
// the head has already advanced, so entries wrap; order, contents and
// the sacked count must survive both the wrap and the regrow.
func TestScoreboardRingWrapAndGrow(t *testing.T) {
	var b scoreboard
	next := uint32(1000) // seq of the next segment pushed
	oldest := next       // seq of the oldest one still tracked
	push := func(k int) {
		for ; k > 0; k-- {
			b.push(segMeta{seq: next, length: 100})
			next += 100
		}
	}
	check := func() {
		t.Helper()
		if want := int(next-oldest) / 100; b.len() != want {
			t.Fatalf("len = %d, want %d", b.len(), want)
		}
		for i := 0; i < b.len(); i++ {
			if got, want := b.at(i).seq, oldest+uint32(100*i); got != want {
				t.Fatalf("entry %d has seq %d, want %d", i, got, want)
			}
		}
	}
	push(6)
	if _, ok, fresh := b.ackUpTo(oldest + 500); !ok || fresh != 500 {
		t.Fatalf("ackUpTo retired ok=%v fresh=%d, want 5 segments", ok, fresh)
	}
	oldest += 500
	push(6) // wraps inside the first 8-entry ring
	check()
	if len(b.buf) != 8 {
		t.Fatalf("ring grew to %d before it was full", len(b.buf))
	}
	// SACK two of the wrapped entries, then outgrow the ring with the
	// head mid-buffer.
	if n := b.sack(SACKBlock{Start: oldest + 300, End: oldest + 500}); n != 200 {
		t.Fatalf("sack marked %d bytes, want 200", n)
	}
	push(40)
	check()
	if b.sacked != 200 {
		t.Fatalf("sacked = %d after regrow, want 200", b.sacked)
	}
	// A cumulative ACK past the sacked pair retires them from the count.
	newest, ok, fresh := b.ackUpTo(oldest + 600)
	oldest += 600
	if !ok || newest.seq != oldest-100 || fresh != 400 || b.sacked != 0 {
		t.Fatalf("ackUpTo: ok=%v newest.seq=%d fresh=%d sacked=%d", ok, newest.seq, fresh, b.sacked)
	}
	check()
}

// A handoff in the middle of loss recovery carries sacked segments in
// the snapshot; the successor's running count must start from them.
func TestScoreboardAcrossSnapshotRestore(t *testing.T) {
	n := newTestNet(t)
	n.dialPair("cubic", "cubic", nil)
	n.establish()
	dropped := 0
	n.drop = func(dir string, h *Header, payload []byte) bool {
		// Two holes, so SACK blocks stay on the board for a while.
		if dir == "a→b" && len(payload) > 0 && dropped < 2 && h.Seq-n.a.iss > uint32(20000+30000*dropped) {
			dropped++
			return true
		}
		return false
	}
	payload := make([]byte, 400<<10)
	prng := sim.NewRNG(3)
	for i := range payload {
		payload[i] = byte(prng.Uint64())
	}
	if sent := n.a.Write(payload); sent != len(payload) {
		t.Fatalf("send buffer took %d of %d bytes", sent, len(payload))
	}
	migrated := false
	for i := 0; i < 400 && !migrated; i++ {
		n.loop.RunFor(500 * time.Microsecond)
		if n.a.inflight.sacked == 0 {
			continue
		}
		before := n.a.outstanding()
		snap := n.a.Snapshot()
		sackedInSnap := 0
		for _, m := range snap.Inflight {
			if m.sacked {
				sackedInSnap += m.length
			}
		}
		if sackedInSnap == 0 {
			t.Fatal("mid-recovery snapshot carries no sacked segment")
		}
		n.a.Detach()
		successor := new(Conn)
		if err := successor.Restore(Config{
			Clock: n.loop, CC: mustCC(t, "cubic"),
			Output: n.outputTo("a→b", n.aAddr, n.bAddr, func() *Conn { return n.b }),
		}, snap); err != nil {
			t.Fatal(err)
		}
		n.a = successor
		checkScoreboard(t, n.a)
		if n.a.inflight.sacked != sackedInSnap || n.a.outstanding() != before {
			t.Fatalf("restored sacked=%d outstanding=%d, donor had %d and %d",
				n.a.inflight.sacked, n.a.outstanding(), sackedInSnap, before)
		}
		migrated = true
	}
	if !migrated {
		t.Fatal("never caught the sender with sacked segments in flight")
	}
	// Nothing was read yet: the whole stream must still arrive intact.
	var got bytes.Buffer
	buf := make([]byte, 64<<10)
	for end := n.loop.Now().Add(10 * time.Second); n.loop.Now() < end && got.Len() < len(payload); {
		n.loop.RunFor(time.Millisecond)
		for {
			m, _ := n.b.Read(buf)
			if m == 0 {
				break
			}
			got.Write(buf[:m])
		}
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("receiver got %d of %d bytes intact after the handoff", got.Len(), len(payload))
	}
	n.loop.RunFor(100 * time.Millisecond) // the last ACKs
	if n.a.inflight.len() != 0 || n.a.outstanding() != 0 {
		t.Fatalf("sender still tracks %d segments, %d bytes outstanding", n.a.inflight.len(), n.a.outstanding())
	}
}

// sackFuzzSender returns an established sender with 30 segments and a
// FIN in flight and no peer: the fuzz target plays the peer.
func sackFuzzSender(t testing.TB) (*Conn, *sim.Loop) {
	loop := sim.NewLoop()
	c := Dial(Config{
		Clock: loop, RNG: sim.NewRNG(1), CC: mustCC(t, "reno"), MSS: 1000,
		Local:  AddrPort{Addr: ipv4.Addr{10, 0, 0, 1}, Port: 40000},
		Remote: AddrPort{Addr: ipv4.Addr{10, 0, 0, 2}, Port: 80},
		Output: func(*Header, []byte, bool) {},
	})
	c.Input(&Header{Flags: FlagSYN | FlagACK, Seq: 5000, Ack: c.iss + 1, Window: 65535,
		Opts: Options{MSS: 1000, SACKPermitted: true}}, nil, false)
	if c.State() != StateEstablished || !c.sackOK {
		t.Fatalf("fuzz sender not established with SACK: %v", c.State())
	}
	c.ctrl.CWnd = 64 << 10
	c.Write(make([]byte, 30_000))
	c.Close()
	if c.inflight.len() != 31 || !c.finSent {
		t.Fatalf("fuzz sender has %d segments in flight, finSent=%v", c.inflight.len(), c.finSent)
	}
	return c, loop
}

// FuzzSACKScoreboard feeds a sender arbitrary ACKs and SACK blocks —
// overlapping, reversed, below sndUna, covering the FIN, cumulative ACKs
// in the middle of a segment — with RTOs in between. The running sacked
// count must track the scan through all of it.
func FuzzSACKScoreboard(f *testing.F) {
	le := binary.LittleEndian
	ack := func(ackOff int16, blocks ...int16) []byte {
		b := le.AppendUint16(nil, uint16(ackOff))
		b = append(b, byte(len(blocks)/2), 0)
		for _, v := range blocks {
			b = le.AppendUint16(b, uint16(v))
		}
		return b
	}
	f.Add(ack(0, 2000, 5000, 4000, 9000))                                // overlapping
	f.Add(ack(0, 9000, 3000))                                            // reversed
	f.Add(append(ack(5000), ack(0, -3000, 2000)...))                     // below sndUna
	f.Add(ack(0, 29000, 30001))                                          // covering the FIN
	f.Add(append(ack(1500), ack(0, -500, 500)...))                       // straddled front segment
	f.Add(append(ack(0, 1000, 30000), append(ack(0), ack(30001)...)...)) // all sacked, then acked
	f.Add(bytes.Repeat(ack(0, 3000, 4000)[:4], 8))                       // blockless dupacks: RTO path

	f.Fuzz(func(t *testing.T, data []byte) {
		c, loop := sackFuzzSender(t)
		for len(data) >= 4 && !c.closed {
			h := Header{Flags: FlagACK, Seq: 5001, Window: 65535,
				Ack: c.sndUna + uint32(int32(int16(le.Uint16(data)))),
			}
			nblocks, idle := int(data[2]%5), data[3]
			data = data[4:]
			for ; nblocks > 0 && len(data) >= 4; nblocks-- {
				h.Opts.AddSACK(SACKBlock{
					Start: c.sndUna + uint32(int32(int16(le.Uint16(data)))),
					End:   c.sndUna + uint32(int32(int16(le.Uint16(data[2:])))),
				})
				data = data[4:]
			}
			c.Input(&h, nil, false)
			checkScoreboard(t, c)
			checkLive(t, c)
			// Let time pass: up to 255 ms, enough for RTOs to fire.
			loop.RunFor(time.Duration(idle) * time.Millisecond)
			checkScoreboard(t, c)
			checkLive(t, c)
		}
	})
}

// BenchmarkProcessAckWindow is the clean-path cost the scoreboard
// exists for: 2 048 segments in flight, one cumulative ACK per segment,
// each ACK answered by one new segment handed over as an owned span (the
// zero-copy path ServiceLib uses), so the send buffer's copy is not what
// is measured.
func BenchmarkProcessAckWindow(b *testing.B) {
	const window, mss = 2048, 1000
	loop := sim.NewLoop()
	c := Dial(Config{
		Clock: loop, RNG: sim.NewRNG(1), CC: mustCC(b, "reno"), MSS: mss,
		SendBufSize: 2 * window * mss,
		Local:       AddrPort{Addr: ipv4.Addr{10, 0, 0, 1}, Port: 40000},
		Remote:      AddrPort{Addr: ipv4.Addr{10, 0, 0, 2}, Port: 80},
		Output:      func(*Header, []byte, bool) {},
	})
	c.Input(&Header{Flags: FlagSYN | FlagACK, Seq: 5000, Ack: c.iss + 1, Window: 65535,
		Opts: Options{MSS: mss, SACKPermitted: true, WScaleOK: true, WScale: 8}}, nil, false)
	// The handshake's windows are unscaled; open the peer's to the
	// buffer size so the congestion window is the only limit.
	c.sndWnd, c.peerWScale = 2*window*mss, 8
	c.ctrl.CWnd = window * mss
	c.ctrl.SSThresh = window * mss // hold the window: reno past ssthresh grows ~1 MSS per RTT
	chunk := make([]byte, mss)
	for c.inflight.len() < window {
		if !c.WriteOwned(chunk, nil, 0) {
			b.Fatalf("window stuck at %d segments", c.inflight.len())
		}
	}
	h := Header{Flags: FlagACK, Seq: 5001, Window: 65535}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Ack = c.sndUna + mss
		c.Input(&h, nil, false)
		c.WriteOwned(chunk, nil, 0)
	}
	b.StopTimer()
	if c.inflight.len() < window/2 {
		b.Fatalf("window collapsed to %d segments", c.inflight.len())
	}
}

// Re-arming the retransmission and delayed-ACK timers — done for every
// segment sent and received — builds no closure and boxes no handle.
func TestAllocsTimerArm(t *testing.T) {
	c, loop := sackFuzzSender(t)
	c.armRTO()
	c.armDelack()
	if n := testing.AllocsPerRun(100, func() { c.armRTO(); c.armDelack(); c.stopRTO() }); n != 0 {
		t.Errorf("armRTO+armDelack+stopRTO: %v allocs, want 0", n)
	}
	c.delackTimer.Stop()
	if loop.Pending() != 0 {
		t.Errorf("%d events pending with every timer stopped", loop.Pending())
	}
}
