package hypervisor

import (
	"fmt"
	"slices"
	"time"

	"netkernel/internal/proto/tcp"
	"netkernel/internal/sim"
	"netkernel/internal/stack"
)

// This file is the NSM lifecycle (DESIGN.md §12). A module is serving,
// booting or migrating; a crash-reboot, a migration's cutover and its
// abort are each a short ordering of ServiceLib's one detach/attach
// pair. A request that would start a transition on top of another is
// refused or folded into it, so a module never boots twice for one
// crash.

// stallBase and stallPerConn model the guest-visible cutover stall: the
// engine gates the migrating tenants' channels for
// stallBase + conns·stallPerConn of virtual time, the serialization
// cost the prototype would pay.
const (
	stallBase    = 200 * time.Microsecond
	stallPerConn = 2 * time.Microsecond
)

// nsmState is where a module is in its lifecycle.
type nsmState uint8

const (
	// nsmServing: the module runs (or, new, finishes its first boot: the
	// engine holds its channels until ReadyAt).
	nsmServing nsmState = iota
	// nsmBooting: the module is rebooting after a crash, or booting as a
	// migration's successor. Nothing runs in it to crash, and it cannot
	// migrate.
	nsmBooting
	// nsmMigrating: the module's migration successor is booting. It
	// cannot migrate again, and its crash cancels the migration.
	nsmMigrating
)

// MigrateOptions tunes Host.MigrateNSM.
type MigrateOptions struct {
	// FailRestoreAfter, when > 0, injects a restore fault once that many
	// connections have been revived on the successor, forcing the abort
	// path: the migration falls back to crash-reboot semantics for the
	// original module (testing).
	FailRestoreAfter int
}

// Migration is the record of one NSM migration.
type Migration struct {
	From, To *NSM
	// StartedAt is when MigrateNSM was called (successor boot begins);
	// CutoverAt is when state moved; ResumeAt is when the engine gate
	// reopened the tenants' channels.
	StartedAt sim.Time
	CutoverAt sim.Time
	ResumeAt  sim.Time
	// VMs and Conns count what moved. Stall is the guest-visible pause.
	VMs   int
	Conns int
	Stall time.Duration
	// Aborted reports the fallback to crash semantics, on a fault
	// mid-cutover or a crash before it; Err is why.
	Aborted bool
	Err     error

	opts MigrateOptions
	done func(*Migration)
}

// RestartNSM models the module process crashing and rebooting. The
// failure is abrupt: tenant pumps die silently, the stack is torn down
// without emitting RST or FIN (the process is gone, nothing is on the
// wire), and the CoreEngine discards in-flight channel work, releases
// fd↔cID mappings, and notifies each guest with a reset completion.
// After the form's boot time a fresh stack with the module's original
// network identity (same MAC, IP, and fabric port) comes up and the
// pumps attach to it; connection IDs and fds stay monotonic across the
// reboot so stale references cannot alias new connections.
//
// A module still booting, or no longer on this host (a migration's
// retired donor), has no process to crash: the call does nothing. A
// crash while the module's migration successor boots aborts the
// migration.
func (h *Host) RestartNSM(n *NSM) {
	if !slices.Contains(h.nsms, n) || n.state == nsmBooting {
		return
	}
	if m := n.migration; m != nil {
		h.abort(m, fmt.Errorf("hypervisor: nsm%d crashed while nsm%d booted", n.ID, m.To.ID))
		return
	}
	h.crash(n)
}

// crash kills module n and schedules its reboot. The pumps detach
// first: each frees its connections' queued and open chunks exactly
// once and empties its tables, so the stack kills that follow fire
// teardown callbacks that find nothing and free nothing. A migration
// successor dies with the donor — its stack may hold connections half
// restored, which must never transmit — before the donor's own stack.
func (h *Host) crash(n *NSM) {
	for _, svc := range n.Services {
		svc.Detach(false)
	}
	if m := n.migration; m != nil {
		m.To.Stack.Kill()
		h.removeNSM(m.To)
		n.migration = nil
	}
	n.Stack.Kill()
	n.state = nsmBooting
	n.ReadyAt = h.clock.Now().Add(n.Profile.BootTime)
	h.Engine.ResetNSM(n.ID, n.ReadyAt)
	n.Restarts++
	h.clock.AfterFunc(n.Profile.BootTime, func() { h.reboot(n) })
}

// reboot brings a crashed module back on a fresh stack with its own
// network identity, and the pumps attach to it.
func (h *Host) reboot(n *NSM) {
	// Registration is last-wins, so the rebooted stack's counters take
	// over the module's metric names (restarts zero them). The shard
	// count is the host's fixed one, so the per-shard "s<i>.conns" gauge
	// names re-register 1:1 — the registry's name set is identical
	// before and after a reboot.
	fresh := h.nsmStack(n)
	n.ident.serve(fresh)
	n.Stack = fresh
	n.state = nsmServing
	for _, svc := range n.Services {
		// The crash kept nothing to revive, so nothing can fail.
		_, _ = svc.Attach(fresh, n.ID, n.CC, 0)
	}
}

// MigrateNSM live-migrates every tenant of old onto a freshly booted
// module built from spec (spec.CC "" keeps the old module's congestion
// control; a different CC hot-swaps every migrated flow). The successor
// boots detached — no network identity — and the cutover runs when its
// boot time elapses: connections serialize, the donor's identity
// transfers, and the tenants resume after a bounded stall. done, if
// non-nil, fires when the cutover (or its abort) completes. A module
// that is rebooting or already migrating is refused.
//
// The returned Migration is live: its cutover fields fill in when the
// cutover runs.
func (h *Host) MigrateNSM(old *NSM, spec NSMSpec, opts MigrateOptions, done func(*Migration)) (*Migration, error) {
	if !slices.Contains(h.nsms, old) {
		return nil, fmt.Errorf("hypervisor: migration source is not a module of this host")
	}
	if old.state != nsmServing {
		return nil, fmt.Errorf("hypervisor: nsm%d is rebooting or already migrating", old.ID)
	}
	if spec.ShareWith != nil || spec.Replicas > 1 {
		return nil, fmt.Errorf("hypervisor: migration target must be a single fresh module")
	}
	if spec.CC == "" {
		spec.CC = old.CC
	}
	next := h.bootDetachedNSM(spec)
	m := &Migration{
		From: old, To: next,
		StartedAt: h.clock.Now(),
		VMs:       len(old.Services),
		opts:      opts, done: done,
	}
	old.state, old.migration = nsmMigrating, m
	next.state = nsmBooting
	h.clock.AfterFunc(next.Profile.BootTime, func() {
		if old.migration == m { // else a crash aborted it
			h.cutover(m)
		}
	})
	return m, nil
}

// cutover is the atomic handoff, run once the successor has booted.
func (h *Host) cutover(m *Migration) {
	old, next := m.From, m.To
	now := h.clock.Now()
	m.CutoverAt = now
	for _, svc := range old.Services {
		svc.Detach(true)
	}
	// The successor adopts the donor's network identity before any
	// restore: restored connections carry the donor's IP, and the stack
	// refuses to revive a connection whose local address it does not
	// own. The restores land within this event, so no frame reaches the
	// successor before them.
	next.ident = old.ident
	next.ident.serve(next.Stack)

	conns := 0
	var err error
	for _, svc := range old.Services {
		fail := 0
		if m.opts.FailRestoreAfter > 0 {
			fail = m.opts.FailRestoreAfter - conns
			if fail <= 0 {
				err = fmt.Errorf("hypervisor: injected migration fault after %d conns", conns)
				break
			}
		}
		var n int
		n, err = svc.Attach(next.Stack, next.ID, next.CC, fail)
		conns += n
		if err != nil {
			break
		}
	}
	if err != nil {
		// Until the donor reboots, its identity delivers to its own dead
		// stack again.
		old.ident.serving = old.Stack
		h.abort(m, err)
		return
	}
	// What remains in the donor's demux is owned by no pump: mid-handshake
	// embryos and TIME_WAIT corpses. TIME_WAIT moves — it self-expires on
	// the successor and keeps protecting its port from stale segments
	// across the handoff (the port recycling model depends on it).
	// Anything else is dropped: the peer's SYN retransmit re-establishes
	// against the successor's listener, crash semantics for state no
	// guest ever saw. Unowned non-expiring states must NOT revive — an
	// orphaned ESTABLISHED conn would wedge in CLOSE_WAIT forever.
	for _, snap := range old.Stack.DrainSnapshots() {
		if snap.State() != tcp.StateTimeWait {
			continue
		}
		if _, rerr := next.Stack.RestoreConn(snap, stack.SocketOptions{}); rerr == nil {
			conns++
		}
	}
	// The donor stack is empty of connections now; Kill clears its
	// listeners and marks it dead.
	old.Stack.Kill()

	// Commit: the engine retargets the tenants' channels onto the
	// successor and reopens them when the modeled stall elapses.
	stall := stallBase + time.Duration(conns)*stallPerConn
	m.Conns, m.Stall = conns, stall
	m.ResumeAt = now.Add(stall)
	h.Engine.RebindNSM(old.ID, next.ID, m.ResumeAt)

	// Tenants and their pumps belong to the successor; the donor is
	// retired. It keeps its dead stack (a stale NSM pointer held by a
	// meter or report samples zeros instead of panicking), but loses its
	// pumps and its host registration.
	next.Services = append(next.Services, old.Services...)
	next.Restarts = old.Restarts
	next.state = nsmServing
	old.Services, old.migration = nil, nil
	h.removeNSM(old)
	for _, vm := range h.vms {
		for i, n := range vm.NSMs {
			if n == old {
				vm.NSMs[i] = next
			}
		}
		if vm.NSM == old {
			vm.NSM = next
		}
	}
	if m.done != nil {
		m.done(m)
	}
}

// abort ends migration m without a cutover, for reason err, with crash
// semantics: the successor is discarded, and the donor crashes, so the
// guest sees every connection reset, exactly a module crash.
func (h *Host) abort(m *Migration, err error) {
	m.Aborted, m.Err = true, err
	h.crash(m.From)
	if m.done != nil {
		m.done(m)
	}
}
