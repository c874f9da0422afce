package hypervisor

import (
	"fmt"
	"sort"
	"time"

	"netkernel/internal/proto/tcp"
	"netkernel/internal/servicelib"
	"netkernel/internal/sim"
	"netkernel/internal/stack"
)

// This file implements live NSM migration (DESIGN.md §12): replacing
// the module serving a set of tenant VMs with a freshly booted one —
// a different form, different congestion control, or simply a newer
// build — without losing a single connection. The cutover is atomic in
// virtual time: connection state serializes out of the old stack and
// revives on the new one within one event, the module's network
// identity (MAC, IP, fabric port) transfers to the successor, and the
// engine gates the tenants' channels for a bounded stall before
// resuming. GuestLib never notices; the guest's descriptors, credits,
// and in-flight operations all survive.

// stallBase and stallPerConn model the guest-visible cutover stall: the
// engine gates the migrating tenants' channels for
// stallBase + conns·stallPerConn of virtual time, the serialization
// cost the prototype would pay.
const (
	stallBase    = 200 * time.Microsecond
	stallPerConn = 2 * time.Microsecond
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
	// Aborted reports the fallback to crash semantics; Err is why.
	Aborted bool
	Err     error
}

// MigrateNSM live-migrates every tenant of old onto a freshly booted
// module built from spec (spec.CC "" keeps the old module's congestion
// control; a different CC hot-swaps every migrated flow). The successor
// boots detached — no network identity — and the cutover runs when its
// boot time elapses: connections serialize, the donor's identity
// transfers, and the tenants resume after a bounded stall. done, if
// non-nil, fires when the cutover (or its abort) completes.
//
// The returned Migration is live: its cutover fields fill in when the
// cutover runs.
func (h *Host) MigrateNSM(old *NSM, spec NSMSpec, opts MigrateOptions, done func(*Migration)) (*Migration, error) {
	if old == nil || old.Stack == nil || old.migratedTo != nil {
		return nil, fmt.Errorf("hypervisor: migration source is not a live module")
	}
	if _, ok := h.nsms[old.ID]; !ok {
		return nil, fmt.Errorf("hypervisor: nsm%d is not on this host", old.ID)
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
	}
	h.clock.AfterFunc(next.Profile.BootTime, func() { h.cutover(old, next, opts, m, done) })
	return m, nil
}

// cutover is the atomic handoff, run once the successor has booted.
func (h *Host) cutover(old, next *NSM, opts MigrateOptions, m *Migration, done func(*Migration)) {
	now := h.clock.Now()
	m.CutoverAt = now

	// The successor adopts the donor's network identity first: restored
	// connections carry the donor's IP, and the stack refuses to revive
	// a connection whose local address it does not own. From here frames
	// for the module deliver to the successor's stack — which drops them
	// demuxless until the restores below land, all within this event.
	old.migratedTo = next
	next.attach = old.attach
	next.attach(next.Stack)

	conns := 0
	var err error
	for _, svc := range old.Services {
		fail := 0
		if opts.FailRestoreAfter > 0 {
			fail = opts.FailRestoreAfter - conns
			if fail <= 0 {
				err = fmt.Errorf("hypervisor: injected migration fault after %d conns", conns)
				break
			}
		}
		var n int
		n, err = svc.Migrate(next.Stack, next.ID, next.CC, servicelib.MigrateOpts{FailRestoreAfter: fail})
		conns += n
		if err != nil {
			break
		}
	}
	if err == nil {
		// What remains in the donor's demux is owned by no pump and no
		// backlog: mid-handshake embryos and TIME_WAIT corpses. TIME_WAIT
		// moves — it self-expires on the successor and keeps protecting
		// its port from stale segments across the handoff (the port
		// recycling model depends on it). Anything else is dropped: the
		// peer's SYN retransmit re-establishes against the successor's
		// listener, crash semantics for state no guest ever saw. Unowned
		// non-expiring states must NOT revive — an orphaned ESTABLISHED
		// conn would wedge in CLOSE_WAIT forever.
		for _, snap := range old.Stack.DrainSnapshots() {
			if snap.State() != tcp.StateTimeWait {
				continue
			}
			if _, rerr := next.Stack.RestoreConn(snap, stack.SocketOptions{}); rerr == nil {
				conns++
			}
		}
	}

	if err != nil {
		m.Aborted, m.Err = true, err
		h.abortMigration(old, next)
		if done != nil {
			done(m)
		}
		return
	}

	// The donor stack is empty of connections now; Kill clears its
	// listeners and marks it dead for any straggler frame that races the
	// attachment swap.
	old.Stack.Kill()

	// Commit: the engine retargets the tenants' channels onto the
	// successor and reopens them when the modeled stall elapses. After
	// this point an abort is impossible — ResetNSM(old.ID) would match
	// nothing.
	stall := stallBase + time.Duration(conns)*stallPerConn
	m.Conns, m.Stall = conns, stall
	m.ResumeAt = now.Add(stall)
	h.Engine.RebindNSM(old.ID, next.ID, m.ResumeAt)

	// Bookkeeping: tenants and their pumps belong to the successor; the
	// donor is decommissioned.
	// The donor keeps its dead stack (a stale NSM pointer held by a
	// meter or report samples zeros instead of panicking), but loses its
	// pumps and its host registration.
	next.Services = append(next.Services, old.Services...)
	next.Restarts = old.Restarts
	old.Services = nil
	delete(h.nsms, old.ID)
	ids := make([]uint32, 0, len(h.vms))
	for id := range h.vms {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		vm := h.vms[id]
		for i, n := range vm.NSMs {
			if n == old {
				vm.NSMs[i] = next
			}
		}
		if vm.NSM == old {
			vm.NSM = next
		}
	}
	if done != nil {
		done(m)
	}
}

// abortMigration falls back to crash semantics when the successor
// fails mid-restore: the guest sees every connection reset — exactly a
// module crash — and the original module reboots on its own identity.
//
// Ordering is load-bearing. The pumps crash FIRST: Crash frees each
// queued send chunk and open receive chunk exactly once and empties the
// connection maps, so when the two stack Kills fire teardown callbacks
// into the pumps they find nothing and free nothing — the double-free
// a naive kill-then-crash order would hit. The successor's stack dies
// before the donor's reboot so its half-restored connections never
// transmit.
func (h *Host) abortMigration(old, next *NSM) {
	for _, svc := range old.Services {
		svc.Crash()
	}
	next.Stack.Kill()
	delete(h.nsms, next.ID)
	// Undo the identity transfer: the donor's attachment must deliver to
	// its own rebooted stack again.
	old.migratedTo = nil
	next.attach = nil
	// Standard crash-reboot of the original module (PR 2 semantics):
	// ResetNSM discards in-flight channel work and tells each guest its
	// connections reset; the pumps rebind to a fresh stack after the
	// form's boot time. Crash above is idempotent, so RestartNSM calling
	// it again is harmless.
	h.RestartNSM(old)
}
