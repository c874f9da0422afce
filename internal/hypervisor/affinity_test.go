package hypervisor

import (
	"testing"
	"time"

	"netkernel/internal/nkchan"
	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/sim"
)

// shardedEngine is a CoreEngine alone on a sharded pair (VM 1, NSM 2):
// a test plays both GuestLib and ServiceLib by hand, one element on one
// shard at a time.
type shardedEngine struct {
	t    *testing.T
	loop *sim.Loop
	ch   *nkchan.Pair
	ce   *CoreEngine
}

func newShardedEngine(t *testing.T, shards int) *shardedEngine {
	t.Helper()
	ch, err := nkchan.NewPair(nkchan.Config{Shards: shards, Queue: nkqueue.Config{Slots: 64}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	loop := sim.NewLoop()
	ce := NewCoreEngine(loop, EngineConfig{})
	ce.Attach(ch, 1, 2, 0, 0, 0)
	return &shardedEngine{t: t, loop: loop, ch: ch, ce: ce}
}

// feed pushes e onto shard's ring for its direction — a VM job, an NSM
// completion or an NSM event — lets the engine pump it, and returns what
// came out on that shard: the forwarded job, the translated element, or
// the engine's own answer to a rejected job. ok is false when nothing
// came out.
func (se *shardedEngine) feed(shard int, e nqe.Element) (out nqe.Element, ok bool) {
	se.t.Helper()
	r := &se.ch.Shards[shard]
	var in *nkqueue.Queue
	switch {
	case e.Source == nqe.FromVM:
		e.VMID = 1
		in = r.VMJob
	case e.Flags&nqe.FlagCompletion != 0:
		e.Source, e.NSMID = nqe.FromNSM, 2
		in = r.NSMCompletion
	default:
		e.Source, e.NSMID = nqe.FromNSM, 2
		in = r.NSMReceive
	}
	if !in.Push(&e) {
		se.t.Fatalf("shard %d: ring refused %v", shard, e.Op)
	}
	if e.Source == nqe.FromVM {
		se.ch.KickEngineVM(shard)
	} else {
		se.ch.KickEngineNSM(shard)
	}
	se.loop.RunFor(time.Millisecond)
	for _, q := range []*nkqueue.Queue{r.NSMJob, r.VMCompletion, r.VMReceive} {
		if q.Pop(&out) {
			ok = true
			if q.Pop(&nqe.Element{}) {
				se.t.Fatalf("shard %d: more than one element came out", shard)
			}
		}
	}
	return out, ok
}

// socket maps fd to cid with home shard, as GuestLib's OpSocket and
// ServiceLib's completion do.
func (se *shardedEngine) socket(shard int, fd int32, cid uint32) {
	se.t.Helper()
	seq := uint64(fd) << 8
	se.feed(shard, nqe.Element{Op: nqe.OpSocket, Source: nqe.FromVM, FD: fd, Seq: seq})
	if out, ok := se.feed(shard, nqe.Element{Op: nqe.OpSocket, Flags: nqe.FlagCompletion, CID: cid, Seq: seq}); !ok || out.FD != fd {
		se.t.Fatalf("socket completion for fd %d came back as %+v (%v)", fd, out, ok)
	}
}

// bad returns the engine's bad-element count.
func (se *shardedEngine) bad() uint64 { return uint64(se.ce.Stats().BadElements) }

// TestShardAffinityAtLookup: a flow's record answers only on the shard
// the flow was installed on. A job, a completion, an OpConnClosed or an
// OpSocket completion riding another shard of a 4-shard pair is a bad
// element — the job is answered StatusInvalid, the rest are dropped —
// and leaves the record as it was. An OpNewConn naming a listener that
// lives on another shard still translates: it rides the accepted flow's
// shard by design.
func TestShardAffinityAtLookup(t *testing.T) {
	const fd, cid = 5, 77
	se := newShardedEngine(t, 4)
	se.socket(1, fd, cid)

	t.Run("job", func(t *testing.T) {
		before := se.bad()
		out, ok := se.feed(2, nqe.Element{Op: nqe.OpRecv, Source: nqe.FromVM, FD: fd, Seq: 900})
		if !ok || out.Op != nqe.OpRecv || out.Status != nqe.StatusInvalid || out.Flags&nqe.FlagCompletion == 0 {
			t.Fatalf("job on a foreign shard came back as %+v (%v), want a StatusInvalid completion", out, ok)
		}
		if n := se.bad() - before; n != 1 {
			t.Errorf("%d bad elements, want 1", n)
		}
		if out, ok := se.feed(1, nqe.Element{Op: nqe.OpRecv, Source: nqe.FromVM, FD: fd, Seq: 901}); !ok || out.CID != cid {
			t.Errorf("job on its home shard forwarded as %+v (%v), want cID %d", out, ok, cid)
		}
	})
	t.Run("completion", func(t *testing.T) {
		before := se.bad()
		if out, ok := se.feed(2, nqe.Element{Op: nqe.OpSetSockOpt, Flags: nqe.FlagCompletion, CID: cid}); ok {
			t.Fatalf("completion on a foreign shard translated as %+v", out)
		}
		if n := se.bad() - before; n != 1 {
			t.Errorf("%d bad elements, want 1", n)
		}
	})
	t.Run("conn-closed", func(t *testing.T) {
		before := se.bad()
		if out, ok := se.feed(3, nqe.Element{Op: nqe.OpConnClosed, CID: cid}); ok {
			t.Fatalf("OpConnClosed on a foreign shard translated as %+v", out)
		}
		if n := se.bad() - before; n != 1 {
			t.Errorf("%d bad elements, want 1", n)
		}
		// The record did not see the close: the guest's close alone
		// does not retire it.
		se.feed(1, nqe.Element{Op: nqe.OpClose, Source: nqe.FromVM, FD: fd})
		if _, ok := se.feed(1, nqe.Element{Op: nqe.OpRecv, Source: nqe.FromVM, FD: fd}); !ok {
			t.Fatal("the mapping retired on an OpConnClosed from a foreign shard")
		}
	})
	t.Run("socket-completion", func(t *testing.T) {
		const fd2, cid2, seq = 6, 88, 600
		se.feed(0, nqe.Element{Op: nqe.OpSocket, Source: nqe.FromVM, FD: fd2, Seq: seq})
		before := se.bad()
		if out, ok := se.feed(3, nqe.Element{Op: nqe.OpSocket, Flags: nqe.FlagCompletion, CID: cid2, Seq: seq}); ok {
			t.Fatalf("OpSocket completion on a foreign shard translated as %+v", out)
		}
		if n := se.bad() - before; n != 1 {
			t.Errorf("%d bad elements, want 1", n)
		}
		// The pending socket waits for its own shard's completion.
		if out, ok := se.feed(0, nqe.Element{Op: nqe.OpSocket, Flags: nqe.FlagCompletion, CID: cid2, Seq: seq}); !ok || out.FD != fd2 {
			t.Fatalf("OpSocket completion on its shard came back as %+v (%v)", out, ok)
		}
	})
	t.Run("new-conn", func(t *testing.T) {
		const lfd, lcid, newCID = 7, 99, 100
		se.socket(0, lfd, lcid)
		before := se.bad()
		out, ok := se.feed(2, nqe.Element{Op: nqe.OpNewConn, CID: lcid, Arg1: newCID})
		if !ok || out.FD != lfd {
			t.Fatalf("OpNewConn for a listener on shard 0 came back on shard 2 as %+v (%v)", out, ok)
		}
		if n := se.bad() - before; n != 0 {
			t.Errorf("%d bad elements, want 0", n)
		}
		// The accepted flow's home is the shard its OpNewConn rode.
		newFD := int32(out.Arg1)
		if out, ok := se.feed(2, nqe.Element{Op: nqe.OpRecv, Source: nqe.FromVM, FD: newFD}); !ok || out.CID != newCID {
			t.Errorf("accepted flow's job on shard 2 forwarded as %+v (%v), want cID %d", out, ok, newCID)
		}
		if out, _ := se.feed(0, nqe.Element{Op: nqe.OpRecv, Source: nqe.FromVM, FD: newFD}); out.Status != nqe.StatusInvalid {
			t.Errorf("accepted flow's job on the listener's shard came back as %+v, want StatusInvalid", out)
		}
	})
}

// TestListenerRetiresByAcceptCount: a listener's OpConnClosed carries in
// Arg1 how many OpNewConns ServiceLib announced for it, and the mapping
// retires once the engine has translated that many, whichever shard they
// ride and in whatever order they meet the close — with no timer.
func TestListenerRetiresByAcceptCount(t *testing.T) {
	const lfd, lcid, newCID = 7, 99, 100
	listen := func(t *testing.T) *shardedEngine {
		se := newShardedEngine(t, 4)
		se.socket(0, lfd, lcid)
		se.feed(0, nqe.Element{Op: nqe.OpListen, Source: nqe.FromVM, FD: lfd})
		se.feed(0, nqe.Element{Op: nqe.OpListen, Flags: nqe.FlagCompletion, CID: lcid})
		return se
	}
	mapped := func(se *shardedEngine, cid uint32) bool {
		_, ok := se.ce.pairs[0].lookupAnyShard(cid)
		return ok
	}
	closeListener := func(t *testing.T, se *shardedEngine, announced uint64) {
		t.Helper()
		se.feed(0, nqe.Element{Op: nqe.OpClose, Source: nqe.FromVM, FD: lfd})
		if out, ok := se.feed(0, nqe.Element{Op: nqe.OpConnClosed, CID: lcid, Arg1: announced}); !ok || out.FD != lfd {
			t.Fatalf("listener's OpConnClosed came back as %+v (%v)", out, ok)
		}
	}
	accept := func(t *testing.T, se *shardedEngine) {
		t.Helper()
		if out, ok := se.feed(2, nqe.Element{Op: nqe.OpNewConn, CID: lcid, Arg1: newCID}); !ok || out.FD != lfd {
			t.Fatalf("OpNewConn came back as %+v (%v)", out, ok)
		}
	}

	t.Run("accept after the close", func(t *testing.T) {
		se := listen(t)
		closeListener(t, se, 1)
		if !mapped(se, lcid) {
			t.Fatal("the listener retired with an announced accept still in flight")
		}
		accept(t, se)
		if mapped(se, lcid) {
			t.Error("the listener outlived its last announced accept")
		}
		if !mapped(se, newCID) || se.ce.Mappings() != 1 {
			t.Errorf("%d mappings after the accept, want the new connection's alone", se.ce.Mappings())
		}
		if n := se.bad(); n != 0 {
			t.Errorf("%d bad elements", n)
		}
	})
	t.Run("accept before the close", func(t *testing.T) {
		se := listen(t)
		accept(t, se)
		closeListener(t, se, 1)
		if mapped(se, lcid) || !mapped(se, newCID) {
			t.Errorf("listener mapped %v, new connection mapped %v; want false, true", mapped(se, lcid), mapped(se, newCID))
		}
	})
	t.Run("no accepts", func(t *testing.T) {
		se := listen(t)
		closeListener(t, se, 0)
		if n := se.ce.Mappings(); n != 0 {
			t.Errorf("%d mappings after a close that announced no accepts, want 0", n)
		}
	})
}
