package servicelib

import (
	"fmt"
	"sort"

	"netkernel/internal/nkchan"
	"netkernel/internal/nqe"
	"netkernel/internal/stack"
)

// This file is the ServiceLib half of live NSM migration (DESIGN.md
// §12): moving a pump's entire guest-facing state — connection IDs,
// listeners, queued send chunks, receive debt — onto a
// successor stack without the guest observing anything. The huge pages
// and rings belong to the VM↔engine channel, which survives the
// migration untouched; only the stack side is rebuilt.

// MigrateOpts tunes one pump's migration.
type MigrateOpts struct {
	// FailRestoreAfter, when > 0, injects a restore fault once that many
	// connections have been revived on the successor (abort-path
	// testing): Migrate returns an error mid-restore, leaving the module
	// in exactly the half-migrated state the abort protocol must clean
	// up with crash semantics.
	FailRestoreAfter int
}

// Migrate moves this pump's guest-facing state onto the successor
// stack st, serving as module nsmID with congestion control cc. Every
// TCP connection is serialized, silently detached from the donor, and
// revived on st; listeners re-listen there.
// Connection IDs, shard pinning, send queues, and flow-control debt
// all survive in place, so the guest's descriptors keep working and
// in-flight chunks replay on the revived sockets.
//
// When cc differs from a connection's serialized algorithm the restore
// is a congestion-control hot-swap: the new algorithm starts from its
// fresh Init state and relearns the path (migrating onto "the BBR NSM"
// switches the flow to BBR).
//
// On error the pump is half-migrated and unusable: the caller must
// fall back to crash semantics (Crash, kill both stacks, reset the
// engine). Returns how many connections were restored.
func (s *ServiceLib) Migrate(st *stack.Stack, nsmID uint32, cc string, opts MigrateOpts) (int, error) {
	if s.dead {
		return 0, fmt.Errorf("servicelib: migrate on dead module")
	}

	// Listeners first (sorted by cID for deterministic replay): the
	// successor must be accepting before any frame reaches it, so a
	// detached SYN-RCVD peer's retransmitted SYN re-establishes against
	// the new stack instead of drawing an RST.
	lids := make([]uint32, 0, len(s.listeners))
	for cid := range s.listeners {
		lids = append(lids, cid)
	}
	sort.Slice(lids, func(i, j int) bool { return lids[i] < lids[j] })
	restored := 0
	for _, cid := range lids {
		ls := s.listeners[cid]
		old := ls.lst
		lst, err := st.Listen(old.Addr().Port, old.MaxBacklog(), stack.SocketOptions{CC: cc})
		if err != nil {
			return 0, fmt.Errorf("servicelib: re-listen port %d: %w", old.Addr().Port, err)
		}
		ls.lst = lst
		lsRef := ls
		lst.OnAcceptable = func() { s.NewAcceptCallback(lsRef) }
		// Established connections sitting in the old backlog — the guest
		// never accepted them, but the peer thinks they're up — move into
		// the successor's backlog so a later accept finds them. Deposit
		// fires the acceptable notification if the guest is waiting.
		old.OnAcceptable = nil
		for {
			conn, ok := old.Accept()
			if !ok {
				break
			}
			snap := conn.Snapshot()
			conn.Detach()
			if snap == nil {
				continue
			}
			c, err := st.RestoreConn(snap, stack.SocketOptions{CC: cc})
			if err != nil {
				return restored, fmt.Errorf("servicelib: restore backlogged conn on port %d: %w", old.Addr().Port, err)
			}
			lst.Deposit(c)
			restored++
		}
	}

	cids := make([]uint32, 0, len(s.conns))
	for cid := range s.conns {
		cids = append(cids, cid)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
	var resumed []uint32
	for _, cid := range cids {
		cs := s.conns[cid]
		if cs.conn == nil {
			continue // socket created but never connected: nothing stack-side
		}
		snap := cs.conn.Snapshot()
		cs.conn.Detach()
		cs.conn = nil
		if snap == nil {
			// Closed under us before the teardown callback ran: report it
			// the way the teardown would have, once.
			delete(s.conns, cid)
			if !cs.eofSent {
				s.emit(cs.shard, nkchan.Receive, &nqe.Element{Op: nqe.OpConnClosed, CID: cid, Status: nqe.StatusOK})
			}
			s.freeConnState(cs)
			continue
		}
		if opts.FailRestoreAfter > 0 && restored >= opts.FailRestoreAfter {
			return restored, fmt.Errorf("servicelib: injected restore fault after %d conns", restored)
		}
		// The snapshot's connection gets the callbacks handleConnect or
		// the accept path bound; OnEstablished matters only for one
		// migrated mid-handshake (SYN-SENT), whose dial completes
		// against the successor stack.
		opts := cs.opts
		opts.CC = cc
		conn, err := st.RestoreConn(snap, opts)
		if err != nil {
			return restored, fmt.Errorf("servicelib: restore cid %d: %w", cid, err)
		}
		cs.conn = conn
		conn.SetPushSink(cs.sink)
		restored++
		resumed = append(resumed, cid)
	}

	s.cfg.Stack = st
	s.cfg.NSMID = nsmID
	s.cfg.CC = cc

	// Resume: queued send chunks continue into the revived sockets and
	// buffered receive bytes flow toward the guest. The emissions land
	// in the rings now; the engine's gate releases them to the VM when
	// the migration stall elapses.
	for _, cid := range resumed {
		if cs := s.conns[cid]; cs != nil {
			s.pumpSend(cs)
		}
		s.deliverData(cid, false)
	}
	return restored, nil
}
