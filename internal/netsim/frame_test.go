package netsim

import (
	"bytes"
	"testing"
	"time"

	"netkernel/internal/framepool"
	"netkernel/internal/sim"
)

// poolFrame is a pool frame addressed to dst, filled with a pattern.
func poolFrame(dst MAC, n int) []byte {
	f := framepool.Get(n)
	for i := range f {
		f[i] = byte(i)
	}
	copy(f, dst[:])
	return f
}

// Every frame a link does not deliver goes back to the pool where it
// dies — queue overflow, loss, link down — and every frame it does
// deliver is the receiver's to release: nothing stays out.
func TestFramesLinkDropsRelease(t *testing.T) {
	framepool.Poison(true)
	defer framepool.Poison(false)
	loop := sim.NewLoop()
	delivered := 0
	recv := PortFunc(func(f []byte) { delivered++; framepool.Put(f) })
	live := framepool.Live()

	// Drop-tail: a 3000-byte queue takes two 1400-byte frames of five.
	link := NewLink(loop, nil, LinkConfig{Rate: 1 * Mbps, QueueBytes: 3000}, recv)
	for i := 0; i < 5; i++ {
		link.Send(poolFrame(MAC{}, 1400))
	}
	loop.Run()
	if st := link.Stats(); st.QueueDrops != 3 || delivered != 2 {
		t.Fatalf("queue drops %d, delivered %d; want 3 and 2", st.QueueDrops, delivered)
	}

	// Random loss.
	delivered = 0
	link = NewLink(loop, sim.NewRNG(3), LinkConfig{Rate: 1 * Gbps, LossProb: 0.5, QueueBytes: 1 << 20}, recv)
	for i := 0; i < 200; i++ {
		link.Send(poolFrame(MAC{}, 200))
	}
	loop.Run()
	if st := link.Stats(); st.LossDrops == 0 || int(st.LossDrops)+delivered != 200 {
		t.Fatalf("loss drops %d + delivered %d != 200", st.LossDrops, delivered)
	}

	// Link down while frames serialise.
	delivered = 0
	link = NewLink(loop, nil, LinkConfig{Rate: 1 * Gbps, Delay: time.Millisecond, QueueBytes: 1 << 20}, recv)
	for i := 0; i < 10; i++ {
		link.Send(poolFrame(MAC{}, 500))
	}
	link.SetDown(true)
	loop.Run()
	if st := link.Stats(); st.DownDrops != 10 || delivered != 0 {
		t.Fatalf("down drops %d, delivered %d; want 10 and 0", st.DownDrops, delivered)
	}

	// Every fault at once on a wire long enough to hold frames in flight:
	// clean frames and duplicates queue on the wire's lane, jittered ones
	// go round it through the loop, lost ones die at the transmitter —
	// and the link goes down with frames on both sides of it.
	delivered = 0
	link = NewLink(loop, sim.NewRNG(5), LinkConfig{Rate: 1 * Gbps, Delay: 100 * time.Microsecond, QueueBytes: 1 << 20,
		Faults: FaultConfig{LossProb: 0.2, DupProb: 0.2, ReorderProb: 0.3, ReorderSpread: 50 * time.Microsecond}}, recv)
	for i := 0; i < 300; i++ {
		link.Send(poolFrame(MAC{}, 200))
	}
	loop.RunFor(400 * time.Microsecond) // 1.6 µs a frame: ~250 sent, ~60 still in flight
	link.SetDown(true)
	loop.Run()
	st := link.Stats()
	if st.LossDrops == 0 || st.DupFrames == 0 || st.ReorderedFrames == 0 || st.DownDrops == 0 ||
		st.Offered != st.TxFrames+st.LossDrops+st.DownDrops || delivered != int(st.TxFrames+st.DupFrames) {
		t.Fatalf("faulty link: %+v, delivered %d", st, delivered)
	}

	if n := framepool.Live() - live; n != 0 {
		t.Fatalf("%d frames neither delivered nor released", n)
	}
}

// The duplicate-frame fault delivers a second buffer of its own, drawn
// from the pool, holding the frame as it was before any corruption.
func TestFramesLinkDuplicateIsPooledCopy(t *testing.T) {
	loop := sim.NewLoop()
	var got [][]byte
	link := NewLink(loop, sim.NewRNG(1), LinkConfig{Rate: 1 * Gbps, QueueBytes: 1 << 20,
		Faults: FaultConfig{DupProb: 1, CorruptProb: 1}}, PortFunc(func(f []byte) { got = append(got, f) }))
	sent := poolFrame(MAC{}, 300)
	want := append([]byte(nil), sent...)
	live := framepool.Live()
	link.Send(sent)
	loop.Run()
	if len(got) != 2 {
		t.Fatalf("%d deliveries, want the frame and its duplicate", len(got))
	}
	dup, orig := got[0], got[1]
	if cap(dup) != framepool.Cap || &dup[0] == &orig[0] {
		t.Fatalf("duplicate shares the original's buffer or is not a pool frame (cap %d)", cap(dup))
	}
	if !bytes.Equal(dup, want) || bytes.Equal(orig, want) {
		t.Fatal("duplicate must be the clean frame, the original the corrupted one")
	}
	if n := framepool.Live() - live; n != 1 {
		t.Fatalf("duplicate drew %d frames from the pool, want 1", n)
	}
	framepool.Put(dup)
	framepool.Put(orig)
	if n := testing.AllocsPerRun(50, func() {
		link.Send(poolFrame(MAC{}, 300))
		loop.Run()
		framepool.Put(got[len(got)-1])
		framepool.Put(got[len(got)-2])
		got = got[:0]
	}); n != 0 {
		t.Errorf("duplicated frame: %v allocs, want 0", n)
	}
}

// A NIC releases what it cannot hand to anyone: with no wire, what it
// sends; with no handler, what it receives, broadcast or not.
func TestFramesNICWithoutReceiverRelease(t *testing.T) {
	framepool.Poison(true)
	defer framepool.Poison(false)
	loop := sim.NewLoop()
	nic := NewNIC(loop, MAC{2, 0, 0, 0, 0, 1})
	live := framepool.Live()

	nic.Send(poolFrame(MAC{}, 64))        // no wire
	nic.Deliver(poolFrame(nic.mac, 64))   // no handler
	nic.Deliver(poolFrame(Broadcast, 64)) // nobody listens at all
	if n := framepool.Live() - live; n != 0 {
		t.Fatalf("%d frames with no receiver were not released", n)
	}

	var got [][]byte
	nic.SetHandler(func(f []byte) { got = append(got, f) })
	nic.Deliver(poolFrame(Broadcast, 64))             // handed over as is
	nic.Deliver(poolFrame(MAC{8, 9, 9, 9, 9, 9}, 64)) // any destination
	if len(got) != 2 || cap(got[0]) != framepool.Cap {
		t.Fatalf("%d deliveries, want 2", len(got))
	}
	if n := framepool.Live() - live; n != 2 {
		t.Fatalf("%d frames out, want the 2 the handler holds", n)
	}
	for _, f := range got {
		framepool.Put(f)
	}
}

// queueBytes is worked out once per link and is the value the per-frame
// float expression used to give.
func TestQueueCapMatchesConfig(t *testing.T) {
	for _, cfg := range []LinkConfig{
		Testbed40G(), WANPath(0.01), LossyReorderLAN(), {Rate: 10 * Gbps, Delay: 50 * time.Microsecond},
		{Rate: 12 * Mbps, Delay: 175 * time.Millisecond}, {QueueBytes: 12345}, {},
	} {
		l := NewLink(sim.NewLoop(), nil, cfg, PortFunc(func([]byte) {}))
		if l.queueCap != cfg.queueBytes() {
			t.Errorf("%+v: queueCap %d, queueBytes() %d", cfg, l.queueCap, cfg.queueBytes())
		}
	}
}
