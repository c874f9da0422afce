package main

import (
	"bytes"
	"fmt"
	"time"

	"netkernel/internal/sim"
)

// patternLen is prime, so the pattern never lines up with a chunk, MSS or
// message size: bytes delivered at a wrong offset cannot pass the check.
const patternLen = 65521

// load is the state the four load generators share: the oracle, the op
// ledger and the latency samples. The harness itself plays the guest
// applications, closed loop, on the sim loop's goroutine.
type load struct {
	loop *sim.Loop
	rec  *recorder
	rng  *sim.RNG // start stagger and think times; the generator's only randomness
	// exact turns the randomness off, for reproducing a committed scenario.
	exact bool
	pat   []byte // oracle: byte at (conn, offset) = pat[(offset + conn*stride) % patternLen]

	measuring bool // latency samples are kept only inside the measured period
	stopping  bool // no new op starts; ops in flight finish, then connections close

	started, done, failed uint64  // ops, whole run
	payload               uint64  // verified payload bytes delivered to the receiving application
	lat                   []int64 // op latencies in virtual ns, measured period only
	conns, established    int     // connections the workload opens up front, and how many completed

	// stops finish each client: whatever is in flight completes and the
	// connection closes. closers then close the listeners. Both run in
	// order, outside loop callbacks.
	stops, closers []func()
	violations     []string
}

func newLoad(loop *sim.Loop, seed uint64, rec *recorder) *load {
	ld := &load{loop: loop, rec: rec, rng: sim.NewRNG(seed*7 + 11), pat: make([]byte, patternLen)}
	prng := sim.NewRNG(seed ^ 0x6f7261636c65)
	for i := 0; i < patternLen; i += 8 {
		v := prng.Uint64()
		for j := 0; j < 8 && i+j < patternLen; j++ {
			ld.pat[i+j] = byte(v >> (8 * j))
		}
	}
	return ld
}

const connStride = 7919

func patAt(conn int, off uint64) int {
	return int((off + uint64(conn)*connStride) % patternLen)
}

// fill writes the stream bytes [off, off+len(p)) of connection conn.
func (ld *load) fill(p []byte, conn int, off uint64) {
	at := patAt(conn, off)
	for len(p) > 0 {
		n := copy(p, ld.pat[at:])
		p = p[n:]
		at = 0
	}
}

// check verifies received bytes against the oracle.
func (ld *load) check(conn int, off uint64, p []byte) bool {
	at := patAt(conn, off)
	for rest := p; len(rest) > 0; {
		n := len(rest)
		if n > patternLen-at {
			n = patternLen - at
		}
		if !bytes.Equal(rest[:n], ld.pat[at:at+n]) {
			ld.violate("conn %d: wrong bytes in stream range [%d,%d)", conn, off, off+uint64(len(p)))
			return false
		}
		rest = rest[n:]
		at = 0
	}
	return true
}

func (ld *load) violate(format string, args ...any) {
	if len(ld.violations) < 8 {
		ld.violations = append(ld.violations, fmt.Sprintf(format, args...))
	}
	ld.failed++ // any violation fails an op, so op_fail_ratio can never hide one
}

// thinkMax bounds the think time every client draws from the seed before
// it sends again: after a reply, after a close, after its socket turns
// writable. Without it the clients phase-lock to the simulator's
// deterministic service times, and the latency quantiles sit on a handful
// of values whatever the seed.
const thinkMax = time.Microsecond

// after runs fn on the loop once a delay below max, drawn from the seed,
// has passed. The exact load (selfcheck) has no randomness: fn runs now.
func (ld *load) after(max time.Duration, fn func()) {
	if ld.exact {
		fn()
		return
	}
	ld.loop.AfterFunc(time.Duration(ld.rng.Intn(int(max))), fn)
}

// opDone completes one op that started at t0 and delivered n payload
// bytes to the receiving application.
func (ld *load) opDone(t0 sim.Time, n int) {
	ld.done++
	ld.payload += uint64(n)
	if ld.measuring {
		ld.lat = append(ld.lat, int64(ld.loop.Now().Sub(t0)))
	}
}

// stream is one chunked byte stream through a connection (and back, for
// an echo). The sender stamps a chunk when its first byte is first
// offered to Send; the sink checks every byte and completes the chunk —
// one op — when its last byte has been read.
type stream struct {
	ld    *load
	conn  int
	chunk uint64

	sent, rcvd uint64     // stream offsets: accepted by Send, read by the sink
	stamps     []sim.Time // first-offer times of chunks not yet complete
	stamped    uint64     // chunks stamped so far
	closed     bool
}

// pump keeps the pipe full: it offers out (one chunk's worth, wherever
// the stream stands) until Send refuses. Once the load is stopping it
// finishes the chunk in flight and offers no more. It reports whether
// everything it will ever send has been accepted.
func (s *stream) pump(g guest, fd int32, out []byte) bool {
	for {
		want := s.chunk
		if s.ld.stopping {
			if s.stamped > 0 && s.sent <= (s.stamped-1)*s.chunk {
				// The newest chunk was offered (an offer spans two chunks
				// when it starts mid-chunk) but no byte of it accepted:
				// withdraw the op.
				s.stamps = s.stamps[:len(s.stamps)-1]
				s.stamped--
				s.ld.started--
			}
			if want = s.stamped*s.chunk - s.sent; want == 0 {
				return true
			}
		}
		p := out[:want]
		s.ld.fill(p, s.conn, s.sent)
		next := (s.sent + s.chunk - 1) / s.chunk // first chunk starting at or after sent
		if next == s.stamped && next*s.chunk < s.sent+want {
			s.stamps = append(s.stamps, s.ld.loop.Now())
			s.stamped++
			s.ld.started++
		}
		n := g.Send(fd, p, s.sent/s.chunk+1)
		if n == 0 {
			return false
		}
		s.sent += uint64(n)
	}
}

// sink consumes received bytes.
func (s *stream) sink(p []byte) {
	s.ld.check(s.conn, s.rcvd, p)
	end := s.rcvd + uint64(len(p))
	for boundary := (s.rcvd/s.chunk + 1) * s.chunk; boundary <= end; boundary += s.chunk {
		if len(s.stamps) == 0 {
			s.ld.violate("conn %d: chunk ending at %d was never offered", s.conn, boundary)
			break
		}
		s.ld.opDone(s.stamps[0], int(s.chunk))
		s.stamps = s.stamps[1:]
	}
	s.rcvd = end
}

// finish ends the stream once the load is stopping: it sends the rest of
// the chunk in flight and closes the sending socket when the sink has
// read every byte sent. Closing any earlier loses data: on OpClose
// ServiceLib closes the TCP connection at once and drops the sends it
// still queues behind a full TCP send buffer.
func (s *stream) finish(g guest, fd int32, out []byte) {
	if s.pump(g, fd, out) && s.rcvd == s.sent && !s.closed {
		s.closed = true
		g.Close(fd, 0)
	}
}
