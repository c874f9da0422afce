package servicelib

import (
	"fmt"
	"slices"

	"netkernel/internal/nqe"
	"netkernel/internal/proto/tcp"
	"netkernel/internal/shm"
	"netkernel/internal/stack"
)

// This file is the ServiceLib half of the NSM lifecycle (DESIGN.md §12):
// one detach/attach pair serves a crash-reboot, a live migration and a
// migration's abort. The huge pages and rings belong to the VM↔engine
// channel and survive all three untouched; only the stack side changes.
// Every walk below runs in ascending cID order, so a lifecycle
// transition replays from the seed.

// Detach unbinds the pump from its stack, in one of two ways.
//
// A crash (keep false) drops every connection through release, as if
// each had ended: open receive chunks and queued send chunks return to
// the huge-page pool, which belongs to the hypervisor, not the module.
// Emissions parked for full rings are discarded, listeners are
// forgotten, and the pump is dead — every pump, emission or stray stack
// callback is a no-op — until Attach. The guest hears of the crash from
// the engine's reset, not from here. The connections themselves are
// left to the caller, which kills the module's stack at once: each
// calls back into a retired connState, which finds no cID.
//
// A migration (keep true) lifts every connection off the stack as a
// snapshot, silently, for Attach to revive: cIDs, shard pinning, queued
// send chunks and receive debt stay in place, so the guest's
// descriptors keep working. Listeners need nothing lifted: their
// backlogs are empty between events, because NewAcceptCallback drains
// each one as a connection lands in it.
func (s *ServiceLib) Detach(keep bool) {
	if !keep {
		s.dead = true
		for _, cid := range sortedIDs(s.conns) {
			s.release(s.conns[cid])
		}
		for shard := range s.backlog {
			s.backlog[shard].Discard(func(e *nqe.Element) {
				if e.Op == nqe.OpNewData && e.DataLen > 0 {
					s.cfg.Pair.Pages.Free(shm.Chunk{Offset: e.DataOff})
				}
				s.cfg.Tracer.Drop(e.Trace)
			})
		}
		clear(s.listeners)
		return
	}
	for _, cid := range sortedIDs(s.conns) {
		cs := s.conns[cid]
		if cs.conn == nil {
			continue // socket created but never connected: nothing stack-side
		}
		// A live connection always snapshots: one that ended ran its
		// OnClose, whose connClosed took it out of s.conns.
		cs.kept = cs.conn.Snapshot()
		cs.conn.Detach()
		cs.conn = nil
	}
}

// Attach binds the pump to stack st, serving as module nsmID with
// congestion control cc, and revives on st whatever Detach kept: each
// listener re-listens, and each connection is restored, after which its
// queued send chunks and buffered receive bytes flow again. When cc
// differs from a connection's snapshot the restore is a
// congestion-control hot-swap: the new algorithm starts from its fresh
// Init state and relearns the path. A pump that crashed comes back to
// life and drains the jobs that queued up during the outage.
//
// failAfter > 0 injects a restore fault once that many connections
// have been revived (testing the abort path). On error the pump is half
// attached, and the caller must crash it. Returns how many connections
// were revived.
func (s *ServiceLib) Attach(st *stack.Stack, nsmID uint32, cc string, failAfter int) (int, error) {
	s.cfg.Stack, s.cfg.NSMID, s.cfg.CC = st, nsmID, cc
	for _, cid := range sortedIDs(s.listeners) {
		ls := s.listeners[cid]
		port := ls.lst.Addr().Port
		lst, err := st.Listen(port, ls.lst.MaxBacklog(), stack.SocketOptions{CC: cc})
		if err != nil {
			return 0, fmt.Errorf("servicelib: re-listen port %d: %w", port, err)
		}
		ls.lst = lst
		lst.OnAcceptable = func() { s.NewAcceptCallback(ls) }
	}
	var resumed []uint32
	for _, cid := range sortedIDs(s.conns) {
		cs := s.conns[cid]
		if cs.kept == nil {
			continue
		}
		if failAfter > 0 && len(resumed) >= failAfter {
			return len(resumed), fmt.Errorf("servicelib: injected restore fault after %d conns", len(resumed))
		}
		// The revived connection gets the callbacks handleConnect or the
		// accept path bound; OnEstablished matters only for one migrated
		// mid-handshake (SYN-SENT), whose dial completes against st.
		opts := cs.opts
		opts.CC = cc
		conn, err := st.RestoreConn(cs.kept, opts)
		if err != nil {
			return len(resumed), fmt.Errorf("servicelib: restore cid %d: %w", cid, err)
		}
		cs.kept, cs.conn = nil, conn
		conn.SetPushSink(cs.sink)
		resumed = append(resumed, cid)
	}
	// The emissions land in the rings now; after a migration the engine's
	// gate releases them to the VM when the cutover stall elapses.
	for _, cid := range resumed {
		if cs := s.conns[cid]; cs != nil {
			s.pumpSend(cs)
		}
		s.deliverData(cid, false)
	}
	if s.dead {
		s.dead = false
		for shard := range s.cfg.Pair.Shards {
			s.pump(shard)
		}
	}
	return len(resumed), nil
}

// release retires cs — after its connection ended, or when its module
// crashed: the open receive chunk and the still-queued send chunks go
// back to the pool (each send answered, unless the module is dead), and
// cs, cut from its connection, goes to connPool. It returns the
// connection cs had.
func (s *ServiceLib) release(cs *connState) *tcp.Conn {
	if cs.rxHave {
		s.cfg.Pair.Pages.Free(cs.rxChunk)
		cs.rxHave, cs.rxFill = false, 0
	}
	delete(s.conns, cs.cid)
	conn := cs.conn
	s.freeConnState(cs)
	return conn
}

// sortedIDs returns m's keys in ascending order.
func sortedIDs[V any](m map[uint32]V) []uint32 {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}
