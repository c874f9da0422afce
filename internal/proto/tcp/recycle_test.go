package tcp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"netkernel/internal/framepool"
	"netkernel/internal/tcpcc"
)

// A Conn rebuilt in place once it has ended must be indistinguishable
// from a new one built from the same Config: every accessor, the
// counters, the snapshot (which carries the congestion-control state),
// all five timers, the buffers, and the whole per-connection state. The
// rebuild reuses the ended connection's congestion-control instance, so
// each algorithm's Init must restore what its constructor built.
func TestRebuiltConnMatchesFresh(t *testing.T) {
	for _, name := range tcpcc.Names() {
		t.Run(name, func(t *testing.T) {
			live := framepool.Live()
			n := newTestNet(t)
			hole := false
			n.drop = func(dir string, h *Header, payload []byte) bool {
				return hole && dir == "a→b" && len(payload) > 0 && h.Seq == n.a.sndUna
			}
			n.dialPair(name, name, nil)
			n.establish()
			payload := bytes.Repeat([]byte("0123456789abcdef"), 8<<10)
			if got := n.transfer(n.a, n.b, payload, 5*time.Second); len(got) != len(payload) {
				t.Fatalf("warm-up transfer moved %d of %d bytes", len(got), len(payload))
			}
			n.loop.RunFor(50 * time.Millisecond) // the last ACKs land
			// Leave a hole the sender cannot fill, so both ends die holding
			// state: a scoreboard with SACKed segments, a reorder queue of
			// pool frames, an armed RTO and a congestion control in recovery.
			hole = true
			n.a.Write(payload[:64<<10])
			n.loop.RunFor(30 * time.Millisecond)
			if len(n.b.ooo) == 0 || n.a.inflight.len() == 0 {
				t.Fatalf("scenario not staged: %d queued out of order, %d in flight", len(n.b.ooo), n.a.inflight.len())
			}
			n.a.Abort() // the RST lands in b's window and resets it
			n.loop.RunFor(30 * time.Millisecond)
			for _, c := range []*Conn{n.a, n.b} {
				if c.State() != StateClosed {
					t.Fatalf("connection still %v after abort", c.State())
				}
				checkEnded(t, c)
			}
			if d := framepool.Live() - live; d != 0 {
				t.Fatalf("%d reorder-queue frames not released at teardown", d)
			}

			mkCC := func() tcpcc.Algorithm {
				cc, err := tcpcc.New(name)
				if err != nil {
					t.Fatal(err)
				}
				return cc
			}
			quiet := func(*Header, []byte, bool) {}
			cfg := func(local, remote AddrPort, cc tcpcc.Algorithm) Config {
				iss := uint32(7777)
				return Config{Clock: n.loop, Local: local, Remote: remote, ISS: &iss, CC: cc, Output: quiet}
			}
			a, b := n.a, n.b
			a.Dial(cfg(n.aAddr, n.bAddr, a.CongestionControl()))
			freshA := Dial(cfg(n.aAddr, n.bAddr, mkCC()))
			checkSame(t, "dialed", a, freshA)

			syn := Header{SrcPort: n.aAddr.Port, DstPort: n.bAddr.Port, Seq: 99, Flags: FlagSYN, Window: 65535,
				Opts: Options{MSS: 1400, WScale: 7, WScaleOK: true, SACKPermitted: true}}
			b.Passive(cfg(n.bAddr, n.aAddr, b.CongestionControl()), &syn, false)
			freshB := NewPassive(cfg(n.bAddr, n.aAddr, mkCC()), &syn, false)
			checkSame(t, "passive", b, freshB)
		})
	}
}

// checkEnded asserts what an ended connection must have let go of.
func checkEnded(t *testing.T, c *Conn) {
	t.Helper()
	for i, tm := range c.timers() {
		if tm.Pending() {
			t.Errorf("timer %d still armed after teardown", i)
		}
	}
	if c.sndBuf.Len() != 0 || c.sndBuf.spans.Len() != 0 || len(c.ooo) != 0 || c.oooBytes != 0 {
		t.Errorf("buffers not emptied: send %d in %d spans, %d out of order (%d bytes)",
			c.sndBuf.Len(), c.sndBuf.spans.Len(), len(c.ooo), c.oooBytes)
	}
}

// checkSame compares a rebuilt connection with a fresh one.
func checkSame(t *testing.T, what string, got, want *Conn) {
	t.Helper()
	accessors := func(c *Conn) string {
		return fmt.Sprintf("%v %+v %v %v cwnd=%d wfree=%d wcap=%d ravail=%d nagle=%v final=%d "+
			"out=%d sndwnd=%d inflight=%d rcvbuf=%d ooo=%d/%d advwnd=%d cc=%s %+v",
			c.State(), c.Stats(), c.LocalAddr(), c.RemoteAddr(), c.CWnd(), c.WriteBufferFree(),
			c.WriteBufferCap(), c.ReadAvailable(), c.NagleEnabled(), c.FinalSeq(),
			c.outstanding(), c.sndWnd, c.inflight.len(), c.rcvBuf.Len(),
			c.oooBytes, len(c.ooo), int(c.advertisedWindow())<<c.ourWScale,
			c.CongestionControl().Name(), c.CongestionControl())
	}
	if g, w := accessors(got), accessors(want); g != w {
		t.Errorf("%s: accessors differ\nrebuilt: %s\nfresh:   %s", what, g, w)
	}
	if g, w := got.Snapshot(), want.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: snapshots differ\nrebuilt: %+v\nfresh:   %+v", what, g, w)
	}
	gt, wt := got.timers(), want.timers()
	for i := range gt {
		if gt[i].Pending() != wt[i].Pending() {
			t.Errorf("%s: timer %d armed=%v, fresh %v", what, i, gt[i].Pending(), wt[i].Pending())
		}
	}
	// The whole per-connection state, less what cannot compare: the
	// callbacks and the congestion-control instance (compared above).
	strip := func(c *Conn) incarnation {
		in := c.incarnation
		in.cfg.Output, in.cfg.CC, in.cc = nil, nil, nil
		return in
	}
	if g, w := strip(got), strip(want); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: connection state differs\nrebuilt: %+v\nfresh:   %+v", what, g, w)
	}
	if got.sndBuf.Len() != 0 || got.rcvBuf.Len() != 0 || len(got.ooo) != 0 || got.inflight.sacked != 0 ||
		got.inflight.len() != want.inflight.len() {
		t.Errorf("%s: rebuilt buffers not fresh: send %d, recv %d, %d out of order, %d in flight (%d sacked)",
			what, got.sndBuf.Len(), got.rcvBuf.Len(), len(got.ooo), got.inflight.len(), got.inflight.sacked)
	}
}
