package hypervisor

// Unit tests for the CoreEngine's batched pump machinery, driving the
// queue pair directly (no GuestLib/ServiceLib) so backpressure and
// mid-span drops can be staged precisely.

import (
	"testing"
	"time"

	"netkernel/internal/nkchan"
	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/shm"
	"netkernel/internal/sim"
)

// asymPair builds a channel whose VM-side and NSM-side rings differ in
// size, so a batch popped from one side can only half-fit in the other.
func asymPair(t *testing.T, vmSlots, nsmSlots int) *nkchan.Pair {
	t.Helper()
	mk := func(slots int) *nkqueue.Queue {
		q, err := nkqueue.NewQueue(nkqueue.Config{Slots: slots})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	return &nkchan.Pair{
		VMJob: mk(vmSlots), VMCompletion: mk(vmSlots), VMReceive: mk(vmSlots),
		NSMJob: mk(nsmSlots), NSMCompletion: mk(nsmSlots), NSMReceive: mk(nsmSlots),
	}
}

// installMapping round-trips an OpSocket job so the engine's fd↔cID
// table maps fd to cid.
func installMapping(t *testing.T, loop *sim.Loop, ch *nkchan.Pair, vmID uint32, fd int32, cid uint32) {
	t.Helper()
	sock := nqe.Element{Op: nqe.OpSocket, Source: nqe.FromVM, VMID: vmID, FD: fd, Seq: uint64(fd)}
	if !ch.VMJob.Push(&sock) {
		t.Fatal("push socket job")
	}
	ch.KickEngineVM(0)
	loop.RunFor(10 * time.Millisecond)
	var got nqe.Element
	if !ch.NSMJob.Pop(&got) || got.Op != nqe.OpSocket {
		t.Fatal("socket job did not reach the NSM job queue")
	}
	comp := nqe.Element{Op: nqe.OpSocket, Source: nqe.FromNSM, CID: cid, Seq: got.Seq}
	if !ch.NSMCompletion.Push(&comp) {
		t.Fatal("push socket completion")
	}
	ch.KickEngineNSM(0)
	loop.RunFor(10 * time.Millisecond)
	if !ch.VMCompletion.Pop(&got) || got.FD != fd {
		t.Fatalf("socket completion came back as %+v", got)
	}
}

// A 20-element batch aimed at an 8-slot NSM job ring: the overflow must
// stall inside the engine and drain later, in order, with nothing lost.
func TestEngineBatchHalfFitsStallsAndDrains(t *testing.T) {
	loop := sim.NewLoop()
	ch := asymPair(t, 64, 8)
	ce := NewCoreEngine(loop, EngineConfig{})
	ce.Attach(ch, 1, 2, 0, 0, 0)
	installMapping(t, loop, ch, 1, 5, 77)

	const total = 20
	for i := 0; i < total; i++ {
		e := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: 1, FD: 5, Seq: uint64(100 + i)}
		if !ch.VMJob.Push(&e) {
			t.Fatalf("push %d failed", i)
		}
	}
	ch.KickEngineVM(0)

	var got []nqe.Element
	for drained := 0; drained < 10 && len(got) < total; drained++ {
		loop.RunFor(10 * time.Millisecond)
		var e nqe.Element
		for ch.NSMJob.Pop(&e) {
			got = append(got, e)
		}
		ch.KickEngineVM(0) // NSM ring drained; let the engine retry stalls
	}
	if len(got) != total {
		t.Fatalf("got %d of %d elements through the 8-slot ring", len(got), total)
	}
	for i, e := range got {
		if e.Seq != uint64(100+i) {
			t.Fatalf("element %d arrived as Seq=%d: batch stall reordered", i, e.Seq)
		}
		if e.CID != 77 || e.NSMID != 2 {
			t.Fatalf("element %d not translated: %+v", i, e)
		}
	}
}

// A spoofed element in the middle of a span must be dropped without
// taking its neighbors with it.
func TestEngineBatchDropsBadElementMidSpan(t *testing.T) {
	loop := sim.NewLoop()
	ch := asymPair(t, 64, 64)
	ce := NewCoreEngine(loop, EngineConfig{})
	ce.Attach(ch, 1, 2, 0, 0, 0)
	installMapping(t, loop, ch, 1, 5, 77)

	good := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: 1, FD: 5, Seq: 201}
	spoofed := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: 9, FD: 5, Seq: 202}
	good2 := good
	good2.Seq = 203
	ch.VMJob.Push(&good)
	ch.VMJob.Push(&spoofed)
	ch.VMJob.Push(&good2)
	before := ce.Stats().BadElements
	ch.KickEngineVM(0)
	loop.RunFor(10 * time.Millisecond)

	var e nqe.Element
	var seqs []uint64
	for ch.NSMJob.Pop(&e) {
		seqs = append(seqs, e.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 201 || seqs[1] != 203 {
		t.Fatalf("survivors = %v, want [201 203]", seqs)
	}
	if ce.Stats().BadElements != before+1 {
		t.Fatalf("BadElements = %d, want %d", ce.Stats().BadElements, before+1)
	}
}

// The NSM→VM direction drops mid-span too: each event for an unknown cID
// right behind a translated run is counted and its chunk freed once — not
// again when the pump resumes after the run.
func TestEngineBatchDropsNSMEventMidSpan(t *testing.T) {
	se := newShardedEngine(t, 1)
	se.socket(0, 5, 77)
	pages, r := se.ch.Pages, &se.ch.Shards[0]
	alloc := func() uint64 {
		c, ok := pages.Alloc()
		if !ok {
			t.Fatal("no chunk")
		}
		return c.Offset
	}
	for _, e := range []nqe.Element{
		{Op: nqe.OpNewData, CID: 77, DataOff: alloc(), DataLen: 1, Seq: 1},
		{Op: nqe.OpNewData, CID: 78, DataOff: alloc(), DataLen: 1, Seq: 2},
		{Op: nqe.OpNewData, CID: 77, DataOff: alloc(), DataLen: 1, Seq: 3},
		{Op: nqe.OpNewData, CID: 999, DataOff: alloc(), DataLen: 1, Seq: 4},
		{Op: nqe.OpNewData, CID: 77, DataOff: alloc(), DataLen: 1, Seq: 5},
	} {
		e.Source, e.NSMID = nqe.FromNSM, 2
		if !r.NSMReceive.Push(&e) {
			t.Fatal("push")
		}
	}
	before := se.bad()
	se.ch.KickEngineNSM(0)
	se.loop.RunFor(time.Millisecond)

	var e nqe.Element
	var seqs []uint64
	for r.VMReceive.Pop(&e) {
		seqs = append(seqs, e.Seq)
		pages.Free(shm.Chunk{Offset: e.DataOff})
	}
	if len(seqs) != 3 || seqs[0] != 1 || seqs[1] != 3 || seqs[2] != 5 {
		t.Fatalf("survivors = %v, want [1 3 5]", seqs)
	}
	if n := se.bad() - before; n != 2 {
		t.Errorf("BadElements rose by %d, want 2", n)
	}
	if n := pages.LiveRefs(); n != 0 {
		t.Errorf("%d live chunk refs, want 0", n)
	}
}

// An unmapped descriptor mid-span is answered with an error completion
// while its neighbors keep flowing.
func TestEngineBatchUnknownFDMidSpan(t *testing.T) {
	loop := sim.NewLoop()
	ch := asymPair(t, 64, 64)
	ce := NewCoreEngine(loop, EngineConfig{})
	ce.Attach(ch, 1, 2, 0, 0, 0)
	installMapping(t, loop, ch, 1, 5, 77)

	a := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: 1, FD: 5, Seq: 301}
	bogus := nqe.Element{Op: nqe.OpSend, Source: nqe.FromVM, VMID: 1, FD: 31337, Seq: 302}
	b := a
	b.Seq = 303
	ch.VMJob.Push(&a)
	ch.VMJob.Push(&bogus)
	ch.VMJob.Push(&b)
	ch.KickEngineVM(0)
	loop.RunFor(10 * time.Millisecond)

	var e nqe.Element
	var seqs []uint64
	for ch.NSMJob.Pop(&e) {
		seqs = append(seqs, e.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 301 || seqs[1] != 303 {
		t.Fatalf("survivors = %v, want [301 303]", seqs)
	}
	if !ch.VMCompletion.Pop(&e) || e.Seq != 302 || e.Status != nqe.StatusInvalid {
		t.Fatalf("unmapped fd not answered with an error completion: %+v", e)
	}
}

// The NSM→VM direction under backpressure: a receive-queue flood into a
// small VM receive ring must stall and drain without loss or reorder.
func TestEngineBatchNSMToVMBackpressure(t *testing.T) {
	loop := sim.NewLoop()
	ch := asymPair(t, 8, 64)
	ce := NewCoreEngine(loop, EngineConfig{})
	ce.Attach(ch, 1, 2, 0, 0, 0)
	installMapping(t, loop, ch, 1, 5, 77)

	const total = 20
	for i := 0; i < total; i++ {
		e := nqe.Element{Op: nqe.OpNewData, Source: nqe.FromNSM, NSMID: 2, CID: 77, Seq: uint64(400 + i)}
		if !ch.NSMReceive.Push(&e) {
			t.Fatalf("push event %d failed", i)
		}
	}
	ch.KickEngineNSM(0)

	var got []nqe.Element
	for drained := 0; drained < 10 && len(got) < total; drained++ {
		loop.RunFor(10 * time.Millisecond)
		var e nqe.Element
		for ch.VMReceive.Pop(&e) {
			got = append(got, e)
		}
		ch.KickEngineNSM(0)
	}
	if len(got) != total {
		t.Fatalf("got %d of %d events through the 8-slot ring", len(got), total)
	}
	for i, e := range got {
		if e.Seq != uint64(400+i) || e.FD != 5 || e.VMID != 1 {
			t.Fatalf("event %d arrived as %+v", i, e)
		}
	}
}

// A kick arms the shard's pump timer: no closure, no bound-method value
// per kick, and kicks while a pump is pending coalesce into it.
func TestAllocsEngineKick(t *testing.T) {
	loop := sim.NewLoop()
	ce := NewCoreEngine(loop, EngineConfig{})
	ch := asymPair(t, 64, 64)
	ce.Attach(ch, 1, 1, 0, 0, 0)
	ch.KickEngineVM(0)
	ch.KickEngineNSM(0)
	loop.Run()
	n := testing.AllocsPerRun(100, func() {
		ch.KickEngineVM(0)
		ch.KickEngineVM(0)
		ch.KickEngineNSM(0)
		if loop.Pending() != 2 {
			t.Fatalf("%d events pending after three kicks, want one pump per direction", loop.Pending())
		}
		loop.Run()
	})
	if n != 0 {
		t.Errorf("kick+pump of idle rings: %v allocs, want 0", n)
	}
}
