package tcp

import (
	"testing"
	"time"
)

// sinkCall is one offer the receive sink saw.
type sinkCall struct {
	n    int
	push bool
}

// pushNet is an established reno pair whose receiver b hands every
// in-order byte to a recording push sink.
func pushNet(t *testing.T) (*testNet, *[]sinkCall) {
	n := newTestNet(t)
	n.dialPair("reno", "reno", nil)
	n.establish()
	calls := new([]sinkCall)
	n.b.SetPushSink(func(p []byte, push bool) int {
		*calls = append(*calls, sinkCall{len(p), push})
		return len(p)
	})
	return n, calls
}

// segmentTo hands b a data segment of size bytes at offset off past its
// rcvNxt, straight into Input.
func segmentTo(n *testNet, off uint32, size int, flags Flags) {
	b := n.b
	h := Header{SrcPort: n.aAddr.Port, DstPort: n.bAddr.Port, Seq: b.rcvNxt + off, Ack: b.sndNxt, Flags: FlagACK | flags, Window: 0xffff}
	n.input(b, &h, make([]byte, size), false)
}

// A segment the sender marked PSH reaches the sink with push set: the
// sink can end its batch there.
func TestSinkSeesPushOfInOrderSegment(t *testing.T) {
	n, calls := pushNet(t)
	segmentTo(n, 0, 64, FlagPSH)
	if want := []sinkCall{{64, true}}; !sameCalls(*calls, want) {
		t.Fatalf("sink saw %v, want %v", *calls, want)
	}
}

// A segment without PSH is the middle of a burst: the sink sees no push.
func TestSinkSeesNoPushWithoutPSH(t *testing.T) {
	n, calls := pushNet(t)
	segmentTo(n, 0, 1000, 0)
	segmentTo(n, 0, 500, FlagPSH)
	if want := []sinkCall{{1000, false}, {500, true}}; !sameCalls(*calls, want) {
		t.Fatalf("sink saw %v, want %v", *calls, want)
	}
}

// The reorder queue keeps each segment's PSH: when the hole fills, the
// segment that filled it goes to the sink without push and the merged
// PSH segment behind it with push, so the message still ends where the
// sender ended it. A snapshot carries the flag with the queue.
func TestSinkSeesPushOfMergedSegment(t *testing.T) {
	n, calls := pushNet(t)
	segmentTo(n, 100, 200, FlagPSH) // ahead of a 100-byte hole
	if len(*calls) != 0 || len(n.b.ooo) != 1 {
		t.Fatalf("out-of-order segment: sink saw %v, reorder queue holds %d", *calls, len(n.b.ooo))
	}
	if s := n.b.Snapshot(); len(s.OOO) != 1 || !s.OOO[0].push {
		t.Fatalf("snapshot's reorder queue %+v lost the PSH", s.OOO)
	}
	segmentTo(n, 0, 100, 0) // fills the hole
	if want := []sinkCall{{100, false}, {200, true}}; !sameCalls(*calls, want) {
		t.Fatalf("sink saw %v, want %v", *calls, want)
	}
}

func sameCalls(got, want []sinkCall) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// A passive connection stops the SYN-ACK's retransmission timer once the
// handshake ACK arrives. One that then only receives, for longer than
// the SYN-ACK's RTO (1 s), must record no RTO: a timer left running
// would fire on the established connection, shrink its congestion
// window and back off as if data had been lost.
func TestReceiveOnlyPassiveConnFiresNoRTO(t *testing.T) {
	n := newTestNet(t)
	synAcks := 0
	n.drop = func(dir string, h *Header, _ []byte) bool {
		if dir == "b→a" && h.Flags&(FlagSYN|FlagACK) == FlagSYN|FlagACK {
			synAcks++
		}
		return false
	}
	n.dialPair("reno", "reno", nil)
	n.establish()
	buf := make([]byte, 256)
	for i := 0; i < 30; i++ {
		n.a.Write(make([]byte, 64))
		n.loop.RunFor(100 * time.Millisecond)
		for m, _ := n.b.Read(buf); m > 0; m, _ = n.b.Read(buf) {
		}
	}
	if got := n.b.Stats().BytesRcvd; got != 30*64 {
		t.Fatalf("b received %d bytes, want %d", got, 30*64)
	}
	if rtos := n.b.Stats().RTOs; rtos != 0 {
		t.Errorf("receive-only passive connection fired %d RTOs", rtos)
	}
	if synAcks != 1 {
		t.Errorf("b sent %d SYN-ACKs, want 1", synAcks)
	}
}
