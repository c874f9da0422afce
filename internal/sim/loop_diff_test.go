package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// diffLoop is what the differential program needs of a loop: Loop
// itself, or refLoop behind the same verbs. stop functions stand in for
// handles so stale ones can be kept and retried after their slot has
// been reissued.
type diffLoop interface {
	now() Time
	processed() uint64
	live() int
	step() bool
	runUntil(Time)
	after(d time.Duration, fn func()) (stop func() bool)
	frame(d time.Duration, id int, run func(int)) // a frame-hop event carrying id in arg
	post(fn func())
	timerInit(k int, fn func())
	timerReset(k int, d time.Duration)
	timerStop(k int) bool
	timerPending(k int) bool
	// The same two verbs on lane k. To the reference a lane is the loop.
	laneAfter(k int, d time.Duration, fn func()) (stop func() bool)
	laneFrame(k int, d time.Duration, id int, run func(int))
}

const (
	diffTimers = 8
	diffLanes  = 4
	// Timers from laneTimer0 up are bound to lane 0 rather than the loop.
	laneTimer0 = 6
)

type newSide struct {
	l      *Loop
	timers [diffTimers]Timer
	lanes  [diffLanes]Lane
	run    func(int)
	laneUse
}

// laneUse is what a program made the lanes do, so the test can tell a
// program that exercises them from one that only falls through.
type laneUse struct {
	took, fellThrough, deepest       int
	stopHead, stopMiddle, stopTail   int
	stopStale, stopDisagreed, broken int
}

func newNewSide() *newSide {
	s := &newSide{l: NewLoop()}
	for k := range s.lanes {
		s.lanes[k].Init(s.l)
	}
	return s
}

func (s *newSide) now() Time         { return s.l.Now() }
func (s *newSide) processed() uint64 { return s.l.Processed() }

// held is how many pending events lane ln holds, head included, and
// laneOffset where among them the event numbered seq is: 0 for the head,
// -1 if it is not there.
func (s *newSide) held(ln *Lane) int {
	if ln.busy {
		return 1 + ln.n
	}
	return 0
}

func (s *newSide) laneOffset(ln *Lane, seq uint64) int {
	if ln.busy && s.l.slots[ln.slot].seq == seq {
		return 0
	}
	if k := ln.find(seq); k >= 0 {
		return 1 + k
	}
	return -1
}

// live is Pending, after checking it against the structure: one heap
// entry per busy lane, holding the lane's head in a slot marked as the
// lane's, the rest of each lane counted as waiting, and an idle lane
// holding nothing.
func (s *newSide) live() int {
	waiting, marked := 0, 0
	for k := range s.lanes {
		ln := &s.lanes[k]
		if n := s.held(ln); n > s.deepest {
			s.deepest = n
		}
		waiting += ln.n
		if !ln.busy {
			if ln.n != 0 {
				s.broken++
			}
			continue
		}
		head := s.l.slots[ln.slot]
		e := s.l.heap[head.pos]
		if e.slot != ln.slot || e.seq != head.seq || e.at > ln.tail || s.l.lanes[ln.slot] != ln {
			s.broken++
		}
		if ln.n > 0 && !e.before(heapEntry{at: ln.q[ln.head].at, seq: ln.q[ln.head].seq}) {
			s.broken++
		}
	}
	for _, ln := range s.l.lanes {
		if ln != nil {
			marked++
		}
	}
	if waiting != s.l.waiting || marked > diffLanes {
		s.broken++
	}
	return s.l.Pending()
}
func (s *newSide) step() bool      { return s.l.Step() }
func (s *newSide) runUntil(t Time) { s.l.RunUntil(t) }
func (s *newSide) post(fn func())  { s.l.Post(fn) }
func (s *newSide) after(d time.Duration, fn func()) func() bool {
	return s.l.AfterFunc(d, fn).Stop
}
func (s *newSide) frame(d time.Duration, id int, run func(int)) {
	s.run = run
	s.l.AfterFrame(d, s, nil, uint64(id))
}
func (s *newSide) HandleFrame(_ []byte, arg uint64) { s.run(int(arg)) }
func (s *newSide) timerInit(k int, fn func()) {
	if k >= laneTimer0 {
		s.timers[k].Init(&s.lanes[0], fn)
	} else {
		s.timers[k].Init(s.l, fn)
	}
}
func (s *newSide) laneAfter(k int, d time.Duration, fn func()) func() bool {
	ln := &s.lanes[k]
	before := s.held(ln)
	h := ln.AfterFunc(d, fn)
	if s.held(ln) == before {
		s.fellThrough++
		return h.Stop
	}
	s.took++
	return func() bool {
		at, n := s.laneOffset(ln, h.seq), s.held(ln)
		stopped := h.Stop()
		switch {
		case stopped != (at >= 0) || stopped != (s.held(ln) == n-1):
			s.stopDisagreed++
		case at < 0:
			s.stopStale++
		case at == 0:
			s.stopHead++
		case at == n-1:
			s.stopTail++
		default:
			s.stopMiddle++
		}
		return stopped
	}
}
func (s *newSide) laneFrame(k int, d time.Duration, id int, run func(int)) {
	s.run = run
	ln := &s.lanes[k]
	before := s.held(ln)
	ln.AfterFrame(d, s, nil, uint64(id))
	if s.held(ln) == before {
		s.fellThrough++
	} else {
		s.took++
	}
}
func (s *newSide) timerReset(k int, d time.Duration) { s.timers[k].Reset(d) }
func (s *newSide) timerStop(k int) bool              { return s.timers[k].Stop() }
func (s *newSide) timerPending(k int) bool           { return s.timers[k].Pending() }

// refSide drives refLoop the way callers drove it before Timer existed:
// a stored handle, Stop then AfterFunc to re-arm.
type refSide struct {
	l       *refLoop
	fns     [diffTimers]func()
	handles [diffTimers]refTimer
}

func (s *refSide) now() Time         { return s.l.Now() }
func (s *refSide) processed() uint64 { return s.l.Processed() }
func (s *refSide) live() int         { return s.l.live() }
func (s *refSide) step() bool        { return s.l.Step() }
func (s *refSide) runUntil(t Time)   { s.l.RunUntil(t) }
func (s *refSide) post(fn func())    { s.l.Post(fn) }
func (s *refSide) after(d time.Duration, fn func()) func() bool {
	return s.l.AfterFunc(d, fn).Stop
}
func (s *refSide) frame(d time.Duration, id int, run func(int)) {
	s.l.AfterFunc(d, func() { run(id) })
}
func (s *refSide) laneAfter(_ int, d time.Duration, fn func()) func() bool { return s.after(d, fn) }
func (s *refSide) laneFrame(_ int, d time.Duration, id int, run func(int)) { s.frame(d, id, run) }
func (s *refSide) timerInit(k int, fn func())                              { s.fns[k] = fn }
func (s *refSide) timerReset(k int, d time.Duration) {
	s.timerStop(k)
	s.handles[k] = s.l.AfterFunc(d, s.fns[k])
}
func (s *refSide) timerStop(k int) bool {
	return s.handles[k].e != nil && s.handles[k].Stop()
}
func (s *refSide) timerPending(k int) bool {
	h := s.handles[k]
	return h.e != nil && h.e.seq == h.seq && h.e.loop != nil && !h.e.stopped
}

// diffProgram is one seeded random program run against one side. Every
// decision comes from rng, which both sides draw from in the same order
// as long as they execute callbacks in the same order — so the first
// divergence in execution order shows up in the logs from there on.
type diffProgram struct {
	side   diffLoop
	rng    *RNG
	log    []string // every observable: executions, Stop results, Pending results
	stops  []func() bool
	nextID int
	budget int // events still allowed to be scheduled
	nested int // depth of callbacks running
}

func (p *diffProgram) logf(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf(format, args...))
}

// delay favours collisions: most events land on a handful of shared
// instants, a few far out (the RTO pattern) where stops usually get them.
func (p *diffProgram) delay() time.Duration {
	switch p.rng.Intn(10) {
	case 0:
		return -time.Microsecond // clamped to now
	case 1, 2:
		return 0
	case 3, 4, 5:
		return 10*time.Millisecond + time.Duration(p.rng.Intn(3))*time.Microsecond
	default:
		return time.Duration(p.rng.Intn(6)) * time.Microsecond
	}
}

// laneDelay is what a FIFO source asks for: lane k's own fixed delay,
// chosen to collide with delay()'s shared instants (lane 0 is the
// 10 ms timeout its timers also use, lane 3 comes due at once). One
// time in eight it is a shorter delay, due before the lane's tail, which
// must fall through to the heap; rarely a longer one, which becomes the
// tail and sends what follows it through the heap until it has run.
func (p *diffProgram) laneDelay(k int) time.Duration {
	fixed := [diffLanes]time.Duration{10 * time.Millisecond, 3 * time.Microsecond, 10*time.Millisecond + time.Microsecond, 0}[k]
	switch c := p.rng.Intn(64); {
	case c == 0:
		return p.delay()
	case c < 8:
		if d := p.delay(); d < fixed {
			return d
		}
	}
	return fixed
}

func (p *diffProgram) ran(id int) {
	p.logf("run %d at %d", id, p.side.now())
	// Nested scheduling: what a callback does depends only on the draws.
	p.nested++
	for n := p.rng.Intn(3); n > 0; n-- {
		p.op()
	}
	p.nested--
}

func (p *diffProgram) op() {
	switch c := p.rng.Intn(22); {
	case c >= 16 && p.budget > 0:
		// One event on a lane, or now and then a burst deep enough to
		// grow the lane's ring (not from a callback: events would breed
		// faster than they run); every other one takes a handle.
		k, n := p.rng.Intn(diffLanes), 1
		if c == 21 && p.nested == 0 {
			n = 8 + p.rng.Intn(40)
		}
		for ; n > 0 && p.budget > 0; n-- {
			p.budget--
			id := p.nextID
			p.nextID++
			if id%2 == 0 {
				p.side.laneFrame(k, p.laneDelay(k), id, p.ran)
			} else {
				p.stops = append(p.stops, p.side.laneAfter(k, p.laneDelay(k), func() { p.ran(id) }))
			}
		}
	case c >= 16:
	case c < 5 && p.budget > 0:
		p.budget--
		id := p.nextID
		p.nextID++
		p.stops = append(p.stops, p.side.after(p.delay(), func() { p.ran(id) }))
	case c < 7 && p.budget > 0:
		p.budget--
		id := p.nextID
		p.nextID++
		p.side.frame(p.delay(), id, p.ran)
	case c < 8 && p.budget > 0:
		p.budget--
		id := p.nextID
		p.nextID++
		p.side.post(func() { p.ran(id) })
	case c < 11 && len(p.stops) > 0:
		// Usually a recent handle, likely still pending; otherwise any
		// ever issued, which is mostly stale ones.
		i := p.rng.Intn(len(p.stops))
		if recent := len(p.stops) - 6; recent > 0 && p.rng.Intn(4) > 0 {
			i = recent + p.rng.Intn(6)
		}
		p.logf("stop h%d = %v", i, p.stops[i]())
	case c < 14 && p.budget > 0:
		p.budget--
		p.side.timerReset(p.rng.Intn(diffTimers), p.delay())
	case c < 15:
		k := p.rng.Intn(diffTimers)
		p.logf("timer %d stop = %v", k, p.side.timerStop(k))
	default:
		k := p.rng.Intn(diffTimers)
		p.logf("timer %d pending = %v", k, p.side.timerPending(k))
	}
}

func runDiffProgram(seed uint64, side diffLoop) *diffProgram {
	p := &diffProgram{side: side, rng: NewRNG(seed), budget: 6000}
	for k := 0; k < diffTimers; k++ {
		k := k
		side.timerInit(k, func() { p.ran(-1 - k) })
	}
	for i := 0; i < 3000; i++ {
		switch c := p.rng.Intn(10); {
		case c < 6:
			p.op()
		case c < 8:
			p.logf("step = %v", side.step())
		default:
			// Often lands between stopped deadlines and live ones.
			side.runUntil(side.now().Add(time.Duration(p.rng.Intn(12_000)) * time.Microsecond))
		}
		p.logf("now %d processed %d live %d", side.now(), side.processed(), side.live())
	}
	for side.step() {
	}
	p.logf("end now %d processed %d live %d", side.now(), side.processed(), side.live())
	return p
}

// TestDifferentialLoopVsReference drives Loop and the container/heap
// loop it replaced with the same seeded random programs — schedule,
// stop, timer reset, nested scheduling from callbacks, same-instant
// bursts, RunUntil across stopped deadlines, stale handles after slot
// reuse — and requires identical (time, id) execution sequences, Stop
// results, Processed counts, and Pending equal to the live count. A
// third of what Loop is asked to schedule goes through four Lanes and
// two lane-bound Timers, which the reference never hears of: FIFO
// runs, bursts, ties with heap events at the lanes' instants, early
// events falling through, callbacks scheduling onto the lane they ran
// from, and Stops of a lane's head, middle, tail and of events long run.
func TestDifferentialLoopVsReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		lanes := newNewSide()
		got := runDiffProgram(seed, lanes)
		want := runDiffProgram(seed, &refSide{l: newRefLoop()})
		if len(got.log) != len(want.log) {
			t.Errorf("seed %d: %d observations, reference made %d", seed, len(got.log), len(want.log))
		}
		for i := 0; i < len(got.log) && i < len(want.log); i++ {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: observation %d: %q, reference %q", seed, i, got.log[i], want.log[i])
			}
		}
		runs, stopped := 0, 0
		for _, o := range got.log {
			switch {
			case strings.HasPrefix(o, "run "):
				runs++
			case strings.HasSuffix(o, "stop = true") || strings.HasPrefix(o, "stop h") && strings.HasSuffix(o, "true"):
				stopped++
			}
		}
		if runs < 500 || stopped < 100 {
			t.Errorf("seed %d: %d events ran and %d were stopped; the program is not exercising the loop", seed, runs, stopped)
		}
		if lanes.broken > 0 || lanes.stopDisagreed > 0 {
			t.Errorf("seed %d: lane structure broken at %d checks, %d Stops disagreed with the lane's contents", seed, lanes.broken, lanes.stopDisagreed)
		}
		if lanes.took < 300 || lanes.fellThrough < 30 || lanes.deepest < 40 ||
			lanes.stopHead == 0 || lanes.stopMiddle == 0 || lanes.stopTail == 0 || lanes.stopStale == 0 {
			t.Errorf("seed %d: the program is not exercising the lanes: %+v", seed, lanes.laneUse)
		}
	}
}

type countFrames struct{ n int }

func (c *countFrames) HandleFrame([]byte, uint64) { c.n++ }

// TestAllocsEventCore gates the event core's allocation-free paths: a
// timer's Reset and fire, a frame hop's schedule and run, a Post of a
// func the caller already holds, and the same on a lane — schedule, run
// and Stop, at the head and behind it.
func TestAllocsEventCore(t *testing.T) {
	l := NewLoop()
	fired := 0
	var tm Timer
	tm.Init(l, func() { fired++ })
	var lane Lane
	lane.Init(l)
	var laneTm Timer
	laneTm.Init(&lane, func() { fired++ })
	frames := new(countFrames)
	frame := make([]byte, 64)
	posted := func() { fired++ }
	// Grow the heap, the slot table and the lane's ring first, as any
	// running world has.
	for i := 0; i < 64; i++ {
		l.Post(posted)
		lane.AfterFunc(0, posted)
	}
	l.Run()
	for name, fn := range map[string]func(){
		"Timer.Reset+fire": func() {
			tm.Reset(time.Millisecond)
			tm.Reset(time.Microsecond) // stops the arm above
			l.Step()
		},
		"AfterFrame+run": func() {
			l.AfterFrame(time.Microsecond, frames, frame, 7)
			l.Step()
		},
		"Post(cached)": func() {
			l.Post(posted)
			l.Step()
		},
		"AfterFunc+Stop": func() {
			l.AfterFunc(time.Millisecond, posted).Stop()
		},
		"Lane.AfterFrame+run": func() {
			lane.AfterFrame(time.Microsecond, frames, frame, 7)
			lane.AfterFrame(time.Microsecond, frames, frame, 8) // waits behind the head
			l.Step()
			l.Step()
		},
		"Lane.AfterFunc+Stop": func() {
			head := lane.AfterFunc(time.Millisecond, posted)
			lane.AfterFunc(time.Millisecond, posted)
			lane.AfterFunc(time.Millisecond, posted).Stop()
			head.Stop()
			l.Run()
		},
		"Timer(lane).Reset+fire": func() {
			laneTm.Reset(time.Millisecond)
			laneTm.Reset(time.Millisecond)
			l.Step()
		},
	} {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}
	if fired == 0 || frames.n == 0 {
		t.Fatalf("callbacks did not run: fired %d frames %d", fired, frames.n)
	}
	if l.Pending() != 0 {
		t.Errorf("Pending = %d after every event ran or was stopped", l.Pending())
	}
}

// BenchmarkLoopTimerChurn is the RTO pattern: arm 10 ms out, stop,
// re-arm; 1 in 100 is left to fire; the clock advances 1 µs per op. The
// arm left behind belongs to a timer not touched again until long after
// it fired: 128 timers x 100 ops each is more than the 10 000 ops an arm
// lives.
func BenchmarkLoopTimerChurn(b *testing.B) {
	l := NewLoop()
	var timers [128]Timer
	for i := range timers {
		timers[i].Init(l, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		timers[i/100%len(timers)].Reset(10 * time.Millisecond)
		l.RunFor(time.Microsecond)
	}
}

// BenchmarkLoopLaneHop is BenchmarkLoopFrameHop behind a standing
// backlog, as a saturated core or a grace period has: each op queues one
// frame event behind the backlog and runs the oldest. On a lane the
// backlog waits in the lane's ring and the heap holds one entry; "heap"
// is the same work scheduled on the loop itself, every waiting event a
// heap entry.
func BenchmarkLoopLaneHop(b *testing.B) {
	for _, backlog := range []int{1_000, 100_000} {
		for _, on := range []string{"lane", "heap"} {
			b.Run(fmt.Sprintf("%s/%d", on, backlog), func(b *testing.B) {
				l := NewLoop()
				var lane Lane
				lane.Init(l)
				after := lane.AfterFrame
				if on == "heap" {
					after = l.AfterFrame
				}
				frames := new(countFrames)
				frame := make([]byte, 1514)
				for i := 0; i < backlog; i++ {
					after(time.Millisecond, frames, frame, 0)
					l.RunFor(time.Nanosecond)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					after(time.Millisecond, frames, frame, 0)
					l.Step()
				}
			})
		}
	}
}

// BenchmarkLoopFrameHop schedules and runs one closure-free frame event
// per op, 32 in flight, as a link or switch hop does.
func BenchmarkLoopFrameHop(b *testing.B) {
	l := NewLoop()
	frames := new(countFrames)
	frame := make([]byte, 1514)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += 32 {
		for j := 0; j < 32; j++ {
			l.AfterFrame(time.Microsecond, frames, frame, uint64(j))
		}
		l.RunFor(time.Microsecond)
	}
}
