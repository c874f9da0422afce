package stack

import (
	"fmt"

	"netkernel/internal/proto/tcp"
)

// This file is the stack half of live NSM migration (DESIGN.md §12):
// draining a dying stack's TCP connections into versioned snapshots
// and reviving snapshots on a successor. The per-connection format
// lives in internal/proto/tcp; this layer adds the demux-table
// bookkeeping and the deterministic iteration order that makes a
// migration schedule a pure function of the seed.

// DrainSnapshots serializes and silently detaches every remaining TCP
// connection, in global tuple order, returning the snapshots. Detached
// connections fire no application callback — the service layer keeps
// its guest-facing state and rewires it to the restored successors.
//
// Mid-handshake passive connections (SYN-RCVD) are detached without a
// snapshot: the peer's SYN retransmission re-establishes them against
// the successor stack's listener, which is simpler and no less correct
// than migrating half a handshake.
func (s *Stack) DrainSnapshots() []*tcp.ConnSnapshot {
	var snaps []*tcp.ConnSnapshot
	s.eachConn(func(c *tcp.Conn) {
		if c.State() != tcp.StateSynRcvd {
			if snap := c.Snapshot(); snap != nil {
				snaps = append(snaps, snap)
			}
		}
		c.Detach()
	})
	return snaps
}

// RestoreConn revives a migrated connection on this stack. The
// snapshot supplies every negotiated and learned parameter; opts
// supplies the new environment — callbacks, buffer overrides, and
// optionally a different congestion control (opts.CC non-empty forces
// a hot-swap; empty keeps the snapshot's algorithm). The restored
// connection is installed in the demux table and transmits nothing
// until the normal event flow (ACK arrival, timer, application write)
// resumes it.
func (s *Stack) RestoreConn(snap *tcp.ConnSnapshot, opts SocketOptions) (*tcp.Conn, error) {
	if snap == nil {
		return nil, fmt.Errorf("stack %s: nil snapshot", s.cfg.Name)
	}
	if s.dead {
		return nil, fmt.Errorf("stack %s: dead", s.cfg.Name)
	}
	if s.iface == nil {
		return nil, fmt.Errorf("stack %s: no interface attached", s.cfg.Name)
	}
	if snap.Local.Addr != s.iface.IP {
		return nil, fmt.Errorf("stack %s: snapshot local %v does not match interface %v",
			s.cfg.Name, snap.Local.Addr, s.iface.IP)
	}
	ccName := opts.CC
	if ccName == "" {
		ccName = snap.CC
	}
	k, cc, err := s.takeSock(ccName)
	if err != nil {
		return nil, err
	}
	key := fourTuple{snap.Local.Addr, snap.Local.Port, snap.Remote.Addr, snap.Remote.Port}
	if _, exists := s.getConn(key); exists {
		s.recycle(k)
		return nil, fmt.Errorf("stack %s: connection %v->%v already present",
			s.cfg.Name, snap.Local, snap.Remote)
	}
	cfg := s.connConfig(k, snap.Local, snap.Remote, cc, opts)
	if err := k.conn.Restore(cfg, snap); err != nil {
		s.recycle(k)
		return nil, err
	}
	s.install(k)
	return &k.conn, nil
}
