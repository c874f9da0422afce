package netsim

import (
	"testing"
	"time"

	"netkernel/internal/sim"
)

type collector struct {
	frames [][]byte
	at     []sim.Time
	clock  sim.Clock
}

func (c *collector) Deliver(frame []byte) {
	c.frames = append(c.frames, frame)
	c.at = append(c.at, c.clock.Now())
}

func TestLinkDeliversInOrderWithDelay(t *testing.T) {
	loop := sim.NewLoop()
	dst := &collector{clock: loop}
	// 8 Mbit/s → 1 byte/µs; 1000-byte frame serializes in 1 ms.
	l := NewLink(loop, sim.NewRNG(1), LinkConfig{Rate: 8 * Mbps, Delay: 10 * time.Millisecond}, dst)
	l.Send(make([]byte, 1000))
	l.Send(make([]byte, 1000))
	loop.Run()
	if len(dst.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(dst.frames))
	}
	// First: 1 ms tx + 10 ms prop = 11 ms. Second: serialized behind the
	// first, so 2 ms tx + 10 ms prop = 12 ms.
	if dst.at[0] != sim.Time(11*time.Millisecond) {
		t.Fatalf("first delivery at %v, want 11ms", dst.at[0])
	}
	if dst.at[1] != sim.Time(12*time.Millisecond) {
		t.Fatalf("second delivery at %v, want 12ms", dst.at[1])
	}
}

func TestLinkThroughputMatchesRate(t *testing.T) {
	loop := sim.NewLoop()
	dst := &collector{clock: loop}
	cfg := LinkConfig{Rate: 100 * Mbps, QueueBytes: 1 << 30}
	l := NewLink(loop, sim.NewRNG(1), cfg, dst)
	const frames = 1000
	const size = 1250 // 10 µs each at 100 Mbit/s
	for i := 0; i < frames; i++ {
		l.Send(make([]byte, size))
	}
	loop.Run()
	if len(dst.frames) != frames {
		t.Fatalf("delivered %d, want %d", len(dst.frames), frames)
	}
	elapsed := loop.Now().Duration().Seconds()
	gotRate := float64(frames*size*8) / elapsed
	if gotRate < 99e6 || gotRate > 101e6 {
		t.Fatalf("achieved %.0f bit/s over a 100 Mbit/s link", gotRate)
	}
}

func TestLinkDropTail(t *testing.T) {
	loop := sim.NewLoop()
	dst := &collector{clock: loop}
	l := NewLink(loop, sim.NewRNG(1), LinkConfig{Rate: 1 * Mbps, QueueBytes: 3000}, dst)
	for i := 0; i < 10; i++ {
		l.Send(make([]byte, 1000))
	}
	loop.Run()
	if len(dst.frames) != 3 {
		t.Fatalf("delivered %d, want 3 (queue limit)", len(dst.frames))
	}
	if l.Stats().QueueDrops != 7 {
		t.Fatalf("QueueDrops = %d, want 7", l.Stats().QueueDrops)
	}
}

func TestLinkLossIsBernoulli(t *testing.T) {
	loop := sim.NewLoop()
	dst := &collector{clock: loop}
	l := NewLink(loop, sim.NewRNG(7), LinkConfig{Rate: 1 * Gbps, LossProb: 0.2, QueueBytes: 1 << 30}, dst)
	const n = 10000
	for i := 0; i < n; i++ {
		l.Send(make([]byte, 100))
	}
	loop.Run()
	lossRate := float64(l.Stats().LossDrops) / n
	if lossRate < 0.17 || lossRate > 0.23 {
		t.Fatalf("empirical loss = %.3f, want ≈0.2", lossRate)
	}
	if len(dst.frames)+int(l.Stats().LossDrops) != n {
		t.Fatal("frames neither delivered nor counted lost")
	}
}

func TestLinkECNMarking(t *testing.T) {
	loop := sim.NewLoop()
	dst := &collector{clock: loop}
	marked := 0
	cfg := LinkConfig{
		Rate: 1 * Mbps, QueueBytes: 1 << 20, ECNThresholdBytes: 2000,
		Marker: func(frame []byte) { marked++; frame[0] = 0xCE },
	}
	l := NewLink(loop, sim.NewRNG(1), cfg, dst)
	for i := 0; i < 10; i++ {
		l.Send(make([]byte, 1000))
	}
	loop.Run()
	if marked == 0 {
		t.Fatal("no frames marked despite standing queue")
	}
	if uint64(marked) != l.Stats().ECNMarks {
		t.Fatalf("marker ran %d times, stats say %d", marked, l.Stats().ECNMarks)
	}
	// Early frames (queue below threshold) must not be marked.
	if dst.frames[0][0] == 0xCE {
		t.Fatal("first frame marked below threshold")
	}
	if dst.frames[9][0] != 0xCE {
		t.Fatal("deep-queue frame not marked")
	}
}

func TestLinkFrameOverheadSlowsGoodput(t *testing.T) {
	run := func(overhead int) sim.Time {
		loop := sim.NewLoop()
		dst := &collector{clock: loop}
		l := NewLink(loop, sim.NewRNG(1), LinkConfig{Rate: 8 * Mbps, FrameOverhead: overhead, QueueBytes: 1 << 30}, dst)
		for i := 0; i < 100; i++ {
			l.Send(make([]byte, 1000))
		}
		loop.Run()
		return loop.Now()
	}
	if run(EthernetOverhead) <= run(0) {
		t.Fatal("frame overhead did not consume wire time")
	}
}

func TestCPUFIFOPerCore(t *testing.T) {
	loop := sim.NewLoop()
	cpu := NewCPU(loop, 2)
	var done []string
	cpu.Dispatch(0, 10*time.Microsecond, func() { done = append(done, "a") })
	cpu.Dispatch(0, 10*time.Microsecond, func() { done = append(done, "b") })
	cpu.Dispatch(1, 5*time.Microsecond, func() { done = append(done, "c") })
	loop.Run()
	if len(done) != 3 {
		t.Fatalf("completed %d jobs", len(done))
	}
	// Core 1 is idle, so "c" finishes first despite being dispatched last.
	if done[0] != "c" || done[1] != "a" || done[2] != "b" {
		t.Fatalf("completion order %v", done)
	}
	if loop.Now() != sim.Time(20*time.Microsecond) {
		t.Fatalf("finished at %v, want 20µs", loop.Now())
	}
}

func TestCPUBusyAccounting(t *testing.T) {
	loop := sim.NewLoop()
	cpu := NewCPU(loop, 4)
	for i := 0; i < 8; i++ {
		cpu.Dispatch(i, time.Millisecond, nil)
	}
	loop.RunFor(4 * time.Millisecond)
	if cpu.TotalBusy() != 8*time.Millisecond {
		t.Fatalf("TotalBusy = %v", cpu.TotalBusy())
	}
	if cpu.BusyTime(0) != 2*time.Millisecond {
		t.Fatalf("core 0 busy = %v (two wrapped dispatches)", cpu.BusyTime(0))
	}
	if cpu.Jobs() != 8 {
		t.Fatalf("Jobs = %d", cpu.Jobs())
	}
	// 8 ms busy over 4 cores × 4 ms elapsed = 50%.
	if u := cpu.Utilization(); u < 0.49 || u > 0.51 {
		t.Fatalf("Utilization = %v, want 0.5", u)
	}
}

func TestCPUCoreWrap(t *testing.T) {
	loop := sim.NewLoop()
	cpu := NewCPU(loop, 3)
	cpu.Dispatch(7, time.Millisecond, nil) // 7%3 == core 1
	if cpu.BusyTime(1) != time.Millisecond {
		t.Fatal("core index did not wrap")
	}
}

func TestDuplex(t *testing.T) {
	loop := sim.NewLoop()
	a := &collector{clock: loop}
	b := &collector{clock: loop}
	ab, ba := Duplex(loop, sim.NewRNG(1), LinkConfig{Rate: 1 * Gbps, Delay: time.Millisecond}, a, b)
	ab.Send(make([]byte, 100))
	ba.Send(make([]byte, 100))
	loop.Run()
	if len(a.frames) != 1 || len(b.frames) != 1 {
		t.Fatalf("duplex delivery a=%d b=%d", len(a.frames), len(b.frames))
	}
}

func TestProfiles(t *testing.T) {
	tb := Testbed40G()
	if tb.Rate != 40*Gbps {
		t.Fatal("testbed profile is not 40GbE")
	}
	wan := WANPath(0.005)
	if wan.Delay != 175*time.Millisecond || wan.LossProb != 0.005 {
		t.Fatalf("WAN profile %+v", wan)
	}
}

func TestBitsPerSecString(t *testing.T) {
	cases := map[BitsPerSec]string{
		40 * Gbps:      "40.00Gbit/s",
		12 * Mbps:      "12.00Mbit/s",
		64 * Kbps:      "64.00Kbit/s",
		BitsPerSec(12): "12bit/s",
	}
	for in, want := range cases {
		if in.String() != want {
			t.Errorf("%v.String() = %q, want %q", float64(in), in.String(), want)
		}
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0xab, 0, 1, 2, 3}
	if m.String() != "02:ab:00:01:02:03" {
		t.Fatalf("MAC String = %q", m.String())
	}
	if !Broadcast.IsBroadcast() || m.IsBroadcast() {
		t.Fatal("broadcast detection broken")
	}
}

type nopHandler struct{ n int }

func (h *nopHandler) HandleFrame([]byte, uint64) { h.n++ }

// A frame's two link hops (serialise, propagate) and a CPU charge are
// closure-free events: none of them may allocate.
func TestAllocsLinkAndCPUHops(t *testing.T) {
	loop := sim.NewLoop()
	delivered := 0
	link := NewLink(loop, sim.NewRNG(1), Testbed40G(), PortFunc(func([]byte) { delivered++ }))
	cpu := NewCPU(loop, 4)
	done := new(nopHandler)
	frame := make([]byte, 1514)
	warm := func() {
		for i := 0; i < 32; i++ {
			link.Send(frame)
			cpu.DispatchFrame(i, 470*time.Nanosecond, done, frame, 0)
		}
		loop.Run()
	}
	warm() // grow the loop's heap and slot table once
	if n := testing.AllocsPerRun(100, func() { link.Send(frame); loop.Run() }); n != 0 {
		t.Errorf("Link.Send through delivery: %v allocs per frame, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { cpu.DispatchFrame(1, 470*time.Nanosecond, done, frame, 0); loop.Run() }); n != 0 {
		t.Errorf("CPU.DispatchFrame: %v allocs per dispatch, want 0", n)
	}
	if delivered == 0 || done.n == 0 {
		t.Fatalf("hops did not run: delivered %d, dispatched %d", delivered, done.n)
	}
}

// A frame's fate must survive being packed into the event's arg.
func TestFrameFatePacking(t *testing.T) {
	loop := sim.NewLoop()
	spread := 3 * time.Second
	link := NewLink(loop, sim.NewRNG(7), LinkConfig{Faults: FaultConfig{
		CorruptProb: 0.5, DupProb: 0.5, ReorderProb: 0.5, ReorderSpread: spread, LossProb: 0.1,
	}}, PortFunc(func([]byte) {}))
	const bits = 9000 * 8
	var lost, dup, corrupt, jittered int
	for i := 0; i < 4000; i++ {
		f := link.drawFate(bits)
		if f.lost() {
			lost++
			if f != fateLost {
				t.Fatalf("a lost frame carries other fate bits: %#x", uint64(f))
			}
			continue
		}
		if f.dup() {
			dup++
		}
		if bit, ok := f.corruptBit(); ok {
			corrupt++
			if bit < 0 || bit >= bits {
				t.Fatalf("corrupt bit %d outside the %d-bit frame", bit, bits)
			}
		}
		if j := f.jitter(); j != 0 {
			jittered++
			if j < 0 || j > spread {
				t.Fatalf("jitter %v outside (0, %v]", j, spread)
			}
		}
	}
	if lost == 0 || dup == 0 || corrupt == 0 || jittered == 0 {
		t.Fatalf("fates not exercised: lost %d dup %d corrupt %d jittered %d", lost, dup, corrupt, jittered)
	}
}

// Jobs returns the total number of dispatched work items.
func (c *CPU) Jobs() uint64 {
	var n uint64
	for i := range c.cores {
		n += c.cores[i].jobs
	}
	return n
}

// Utilization returns TotalBusy divided by cores×elapsed, the average
// fraction of the CPU consumed since the epoch.
func (c *CPU) Utilization() float64 {
	elapsed := c.clock.Now().Duration()
	if elapsed <= 0 {
		return 0
	}
	return float64(c.TotalBusy()) / (float64(elapsed) * float64(len(c.cores)))
}
