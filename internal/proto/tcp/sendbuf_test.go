package tcp

import (
	"bytes"
	"testing"

	"netkernel/internal/proto/ipv4"
	"netkernel/internal/sim"
)

// The send buffer's span list is a ring (DESIGN.md §8): the cumulative
// ACK pops spans in O(1) and a buffer that drains and refills keeps its
// storage. These tests drive it across the ring's wrap point, where an
// index slip would hand TCP the wrong bytes or release a chunk early.

func newSendBuffer(capacity int) *sendBuffer {
	b := new(sendBuffer)
	b.reset(capacity)
	return b
}

// countingReleaser records every Release by token.
type countingReleaser map[uint64]int

func (r countingReleaser) Release(token uint64) { r[token]++ }

// orderedReleaser checks, without allocating, that chunks lent with
// tokens 0, 1, 2, … come back exactly once each, in order.
type orderedReleaser struct{ next, bad uint64 }

func (r *orderedReleaser) Release(token uint64) {
	if token != r.next {
		r.bad++
	}
	r.next++
}

// fill returns n bytes whose values identify their position in the
// stream, so a misplaced view shows.
func fill(from, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte((from + i) * 7)
	}
	return p
}

// checkContents walks the whole buffer front to back in MSS-sized views,
// as trySend does (the seek cache advancing), then jumps back to the
// front as a retransmission does, and compares both with want.
func checkContents(t *testing.T, b *sendBuffer, want []byte) {
	t.Helper()
	if b.Len() != len(want) {
		t.Fatalf("Len %d, want %d", b.Len(), len(want))
	}
	var got []byte
	for off := 0; off < b.Len(); {
		v := b.Contig(off, 37)
		if len(v) == 0 {
			t.Fatalf("empty view at offset %d of %d", off, b.Len())
		}
		got = append(got, v...)
		off += len(v)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sequential views differ from the stream")
	}
	if len(want) > 0 {
		if v := b.Contig(0, 1); len(v) != 1 || v[0] != want[0] {
			t.Fatal("backward jump to the front read the wrong byte")
		}
		peek := make([]byte, len(want))
		if n := b.Peek(peek, 0); n != len(want) || !bytes.Equal(peek, want) {
			t.Fatal("Peek differs from the stream")
		}
	}
}

func TestSendBufferRingWrap(t *testing.T) {
	b := newSendBuffer(1 << 16)
	rel := countingReleaser{}
	var stream []byte
	pos := 0 // stream offset of the buffer's front
	borrow := func(token uint64, n int) {
		p := fill(pos+len(stream), n)
		if !b.WriteOwned(p, rel, token) {
			t.Fatalf("WriteOwned of token %d refused", token)
		}
		stream = append(stream, p...)
	}
	discard := func(n int) {
		if got := b.Discard(n); got != n {
			t.Fatalf("Discard(%d) = %d", n, got)
		}
		stream, pos = stream[n:], pos+n
	}

	// Six 100-byte borrowed spans; ACK five and a half of them.
	for tok := uint64(1); tok <= 6; tok++ {
		borrow(tok, 100)
	}
	checkContents(t, b, stream)
	discard(550)
	for tok := uint64(1); tok <= 5; tok++ {
		if rel[tok] != 1 {
			t.Fatalf("token %d released %d times after its last byte was ACKed", tok, rel[tok])
		}
	}
	if rel[6] != 0 {
		t.Fatal("token 6 released with 50 of its bytes unacknowledged")
	}

	// Six more spans: the ring (eight slots) now wraps behind the front.
	for tok := uint64(7); tok <= 12; tok++ {
		borrow(tok, 100)
	}
	if b.spans.Len() != 7 {
		t.Fatalf("%d spans, want 7", b.spans.Len())
	}
	checkContents(t, b, stream)

	// Owned writes coalesce into an owned tail past the wrap: one span.
	for i := 0; i < 3; i++ {
		p := fill(pos+len(stream), 40)
		if b.Write(p) != len(p) {
			t.Fatal("owned Write short")
		}
		stream = append(stream, p...)
	}
	if b.spans.Len() != 8 {
		t.Fatalf("%d spans after three owned writes, want 8 (one coalesced tail)", b.spans.Len())
	}
	checkContents(t, b, stream)

	// A partial Discard that ends inside a span stored past the wrap.
	discard(50 + 3*100 + 30) // token 6, tokens 7–9, 30 bytes into token 10
	for tok := uint64(6); tok <= 9; tok++ {
		if rel[tok] != 1 {
			t.Fatalf("token %d released %d times", tok, rel[tok])
		}
	}
	if rel[10] != 0 {
		t.Fatal("token 10 released while partly unacknowledged")
	}
	checkContents(t, b, stream)

	// Teardown across the wrap releases each remaining span once.
	b.ReleaseAll()
	for tok := uint64(1); tok <= 12; tok++ {
		if rel[tok] != 1 {
			t.Fatalf("token %d released %d times in all, want exactly once", tok, rel[tok])
		}
	}
	if b.Len() != 0 || b.spans.Len() != 0 {
		t.Fatalf("buffer holds %d bytes in %d spans after ReleaseAll", b.Len(), b.spans.Len())
	}
	// An empty hand-off is released at once, like any fully ACKed span.
	if !b.WriteOwned(nil, rel, 13) || rel[13] != 1 {
		t.Fatal("empty WriteOwned not released immediately")
	}
}

// TestSendBufferRingOracle drives random writes, borrowed hand-offs and
// partial ACKs through a small buffer, so the span ring wraps and grows
// many times, against a byte slice and a release ledger.
func TestSendBufferRingOracle(t *testing.T) {
	rng := sim.NewRNG(21)
	b := newSendBuffer(2000)
	rel := countingReleaser{}
	var stream []byte
	pos := 0
	type lent struct {
		token uint64
		end   int // stream offset one past its last byte
	}
	var out []lent
	token := uint64(0)
	for step := 0; step < 5000; step++ {
		switch rng.Intn(4) {
		case 0:
			p := fill(pos+len(stream), 1+rng.Intn(90))
			n := b.Write(p)
			stream = append(stream, p[:n]...)
		case 1:
			token++
			p := fill(pos+len(stream), 1+rng.Intn(300))
			if b.WriteOwned(p, rel, token) {
				stream = append(stream, p...)
				out = append(out, lent{token, pos + len(stream)})
			} else if len(p) <= b.Free() {
				t.Fatalf("step %d: WriteOwned of %d bytes refused with %d free", step, len(p), b.Free())
			}
		default:
			n := rng.Intn(len(stream) + 1)
			b.Discard(n)
			stream, pos = stream[n:], pos+n
			for len(out) > 0 && out[0].end <= pos {
				if rel[out[0].token] != 1 {
					t.Fatalf("step %d: token %d released %d times once ACKed", step, out[0].token, rel[out[0].token])
				}
				out = out[1:]
			}
			for _, l := range out {
				if rel[l.token] != 0 {
					t.Fatalf("step %d: token %d released before its last byte was ACKed", step, l.token)
				}
			}
		}
		if step%50 == 0 {
			checkContents(t, b, stream)
		}
	}
	b.ReleaseAll()
	for tok := uint64(1); tok <= token; tok++ {
		if n := rel[tok]; n > 1 {
			t.Fatalf("token %d released %d times", tok, n)
		}
	}
	for _, l := range out {
		if rel[l.token] != 1 {
			t.Fatalf("token %d not released by ReleaseAll", l.token)
		}
	}
}

// A chunk hand-off is data, not a closure: WriteOwned allocates nothing
// whether the send buffer takes the span or refuses it, and neither
// does the ACK that releases it.
func TestAllocsWriteOwned(t *testing.T) {
	const window, mss = 64, 1000
	loop := sim.NewLoop()
	c := Dial(Config{
		Clock: loop, RNG: sim.NewRNG(1), CC: mustCC(t, "reno"), MSS: mss,
		SendBufSize: window * mss,
		Local:       AddrPort{Addr: ipv4.Addr{10, 0, 0, 1}, Port: 40000},
		Remote:      AddrPort{Addr: ipv4.Addr{10, 0, 0, 2}, Port: 80},
		Output:      func(*Header, []byte, bool) {},
	})
	c.Input(&Header{Flags: FlagSYN | FlagACK, Seq: 5000, Ack: c.iss + 1, Window: 65535,
		Opts: Options{MSS: mss, WScaleOK: true, WScale: 8}}, nil, false)
	c.sndWnd, c.peerWScale = 2*window*mss, 8
	c.ctrl.CWnd, c.ctrl.SSThresh = window*mss, window*mss
	rel := &orderedReleaser{}
	chunk := make([]byte, mss)
	token := uint64(0)
	for c.WriteOwned(chunk, rel, token) {
		token++
	}
	refused := func() {
		if c.WriteOwned(chunk, rel, token) {
			t.Fatal("a full send buffer took a chunk")
		}
	}
	h := Header{Flags: FlagACK, Seq: 5001, Window: 65535}
	accepted := func() {
		h.Ack = c.sndUna + mss
		c.Input(&h, nil, false) // releases the oldest chunk
		if !c.WriteOwned(chunk, rel, token) {
			t.Fatal("send buffer refused a chunk after an ACK made room")
		}
		token++
	}
	for i := 0; i < 2*window; i++ {
		accepted() // every span in the ring has cycled once
	}
	released := rel.next
	if n := testing.AllocsPerRun(100, refused); n != 0 {
		t.Errorf("refused WriteOwned: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, accepted); n != 0 {
		t.Errorf("ACK + accepted WriteOwned: %v allocs, want 0", n)
	}
	if rel.next == released {
		t.Fatal("no chunk released while measuring")
	}
	if rel.bad != 0 || rel.next+window != token {
		t.Fatalf("%d releases out of order; %d released, %d lent, %d-chunk window", rel.bad, rel.next, token, window)
	}
}
