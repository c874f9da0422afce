package hypervisor

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"netkernel/internal/nkchan"
	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/shm"
	"netkernel/internal/sim"
	"netkernel/internal/telemetry"
)

// nqeCopyCost is the per-element queue-to-queue copy cost; §4.2
// measures ~12 ns on the prototype (and cmd/nkbench micro reproduces it
// on real memory).
const nqeCopyCost = 12 * time.Nanosecond

// EngineConfig shapes the CoreEngine's cost model.
type EngineConfig struct {
	// NotifyLatency is the engine's own wakeup latency per batched
	// interrupt (added to the NSM form's notify latency). Default
	// 1 µs.
	NotifyLatency time.Duration
	// Batch caps how many nqes one pump drains per ring span. Larger
	// batches amortize kicks and atomic publication over more
	// elements (§3.2 "batched interrupts"); the queue itself bounds
	// worst-case latency. Default 64.
	Batch int
}

func (c *EngineConfig) fillDefaults() {
	if c.NotifyLatency <= 0 {
		c.NotifyLatency = time.Microsecond
	}
	if c.Batch <= 0 {
		c.Batch = 64
	}
}

// EngineStats counts CoreEngine activity.
type EngineStats struct {
	NqesVMToNSM uint64
	NqesNSMToVM uint64
	Translated  uint64
	BadElements uint64
	// NSM crash handling (ResetNSM).
	NSMResets         uint64
	ResetConns        uint64 // mappings force-closed by a reset
	DiscardedElements uint64 // in-flight nqes dropped by a reset
}

// Mappings returns the total live fd↔cID entries across pairs
// (monitoring; a steadily growing value would indicate a leak). Safe to
// call from any goroutine.
func (ce *CoreEngine) Mappings() int {
	n := 0
	for _, ep := range ce.pairs {
		ep.mu.Lock()
		n += len(ep.byFD)
		ep.mu.Unlock()
	}
	return n
}

// CheckFlowAffinity verifies each pair's mapping table: every fd names a
// record that maps back to it, the record's cID names the same record,
// no cID is left without an fd, and the record's home shard — the only
// shard whose flow elements may translate through it — is one of the
// pair's. Safe to call from any goroutine.
func (ce *CoreEngine) CheckFlowAffinity() error {
	for _, ep := range ce.pairs {
		if err := ep.checkTable(); err != nil {
			return fmt.Errorf("vm%d/nsm%d: %v", ep.vmID, ep.nsmID, err)
		}
	}
	return nil
}

func (ep *enginePair) checkTable() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for fd, i := range ep.byFD {
		m := &ep.recs[i] // only its identity: the rest is the loop's
		switch {
		case m.fd != fd:
			return fmt.Errorf("fd %d names the record of fd %d", fd, m.fd)
		case ep.byCID[m.cid] != i:
			return fmt.Errorf("fd %d maps to cID %d, which names another record", fd, m.cid)
		case int(m.shard) >= len(ep.shards):
			return fmt.Errorf("fd %d lives on shard %d of %d", fd, m.shard, len(ep.shards))
		}
	}
	if len(ep.byCID) != len(ep.byFD) {
		return fmt.Errorf("%d cIDs mapped for %d fds", len(ep.byCID), len(ep.byFD))
	}
	return nil
}

// CoreEngine is the hypervisor daemon of §3: it copies nqes between VM
// and NSM queues, owns the <VM ID, fd> ↔ <NSM ID, cID> connection
// mapping table, and assigns descriptors for accepted connections.
//
// With a sharded channel the engine runs one logical pump per shard
// (the journal version's multi-queue NSM), each with its own backlogs,
// over one mapping table per channel. A flow's elements only ever ride
// the shard its RSS hash pinned it to, and its record remembers that
// shard. All pumps execute on the simulation loop; same-instant pumps
// run in kick order, which producers issue in ascending shard order,
// keeping runs pure functions of the seed.
type CoreEngine struct {
	clock sim.Clock
	cfg   EngineConfig
	pairs []*enginePair
	stats EngineStats
	// tracer, when set, stamps traced elements as they cross the engine
	// ("engine.vm-pump" / "engine.nsm-pump" hops); NewHost gives it the
	// host's.
	tracer *telemetry.Tracer
}

// NewCoreEngine builds the daemon.
func NewCoreEngine(clock sim.Clock, cfg EngineConfig) *CoreEngine {
	cfg.fillDefaults()
	return &CoreEngine{clock: clock, cfg: cfg}
}

// Stats returns a copy of the counters.
func (ce *CoreEngine) Stats() EngineStats { return ce.stats }

// Pairs returns the number of attached VM↔NSM channels.
func (ce *CoreEngine) Pairs() int { return len(ce.pairs) }

// enginePair is one VM↔NSM channel's state inside the engine: identity,
// latency, the boot gate, the accepted-connection descriptor allocator
// and the fd↔cID mapping table. Its shards hold the pumps.
type enginePair struct {
	engine *CoreEngine
	ch     *nkchan.Pair
	vmID   uint32
	nsmID  uint32
	notify time.Duration

	// nextFD allocates descriptors for accepted connections (§3.2:
	// "CoreEngine generates a new socket fd on behalf of the VM").
	// The range is disjoint from GuestLib's own allocations and
	// shared by all shards (only pump code, i.e. the loop goroutine,
	// touches it).
	nextFD int32

	readyAt sim.Time // NSM boot gate
	shards  []*pairShard

	// mu guards the table for management-plane readers (Mappings,
	// CheckFlowAffinity): the maps, and a record's identity (fd, cID,
	// shard). All mutation happens on the loop goroutine, and only the
	// loop goroutine reads the rest of a record.
	mu sync.Mutex
	// byFD and byCID index the mapping records from either side, so the
	// lookup that translates an element also finds its record. A
	// retired record's slot waits in free for the next mapping, so
	// connection churn reuses records instead of growing recs.
	byFD  map[int32]int32
	byCID map[uint32]int32
	recs  []mapping
	free  []int32
	// pendingFD holds, by Seq, the record of each forwarded OpSocket
	// — its fd and the shard it rode — until the completion brings the
	// cID and installs it.
	pendingFD map[uint64]mapping
}

// pairShard is one shard's pump state: its rings and its backlogs.
type pairShard struct {
	ep    *enginePair
	idx   int
	rings *nkchan.Rings

	// vmPump and nsmPump run pumpVM and pumpNSM one notify latency
	// after a kick; a kick while one is pending coalesces into it.
	vmPump, nsmPump sim.Timer
	// toNSM and toVM park translated elements whose ring was full; the
	// next pump in that direction retries them ahead of new work.
	toNSM, toVM nkqueue.Backlog
	// rejected counts the bad jobs the current pumpVM answered itself:
	// their error completions sit in the VM's completion ring, so the
	// pump's follow-up owes the VM a kick as well.
	rejected uint64
}

// mapping is the record of one <VM ID, fd> ↔ <NSM ID, cID> entry. Its
// flags and counts say when nothing can translate through it any more:
// the guest's OpClose is the last job GuestLib issues for an fd, the
// NSM's OpConnClosed is the last event ServiceLib emits for a cID (but
// for the OpNewConns a listener's close counts), and a job ServiceLib
// answers is answered exactly once (DESIGN.md §10, "mapping lifecycle").
type mapping struct {
	fd  int32
	cid uint32
	// shard is the flow's home shard: its jobs, completions and
	// OpConnClosed translate only there.
	shard int32
	// owed counts forwarded jobs whose completion has not been
	// translated yet: OpSend, OpSetSockOpt and OpListen, the jobs
	// ServiceLib always answers.
	owed uint32
	// acceptsDue is a listener's balance of OpNewConns: the listener's
	// OpConnClosed adds how many ServiceLib announced (its Arg1), each
	// one translated, riding the accepted flow's shard, takes one off.
	acceptsDue int32
	// guestClosed and nsmClosed record the translated OpClose and
	// OpConnClosed.
	guestClosed, nsmClosed bool
}

// install maps m's fd to its cID, in a recycled record when one is free.
func (ep *enginePair) install(m mapping) {
	ep.mu.Lock()
	i := int32(len(ep.recs))
	if n := len(ep.free); n > 0 {
		i, ep.free = ep.free[n-1], ep.free[:n-1]
		ep.recs[i] = m
	} else {
		ep.recs = append(ep.recs, m)
	}
	ep.byFD[m.fd] = i
	ep.byCID[m.cid] = i
	ep.mu.Unlock()
}

// settle retires record i once both sides have closed, every job
// ServiceLib answers has been answered, and every OpNewConn announced
// has been translated.
func (ep *enginePair) settle(i int32) {
	m := &ep.recs[i]
	if m.guestClosed && m.nsmClosed && m.owed == 0 && m.acceptsDue == 0 {
		ep.retire(i)
	}
}

// retire deletes record i's two table entries and frees its slot. An
// entry a forged duplicate fd or cID has since taken over is left alone.
func (ep *enginePair) retire(i int32) {
	m := &ep.recs[i]
	ep.mu.Lock()
	if j, ok := ep.byFD[m.fd]; ok && j == i {
		delete(ep.byFD, m.fd)
	}
	if j, ok := ep.byCID[m.cid]; ok && j == i {
		delete(ep.byCID, m.cid)
	}
	*m = mapping{}
	ep.mu.Unlock()
	ep.free = append(ep.free, i)
}

// lookupFD returns the index of fd's record if the flow's home is this
// shard: an element of a flow must ride the shard its record was
// installed on.
func (sh *pairShard) lookupFD(fd int32) (int32, bool) {
	ep := sh.ep
	ep.mu.Lock()
	i, ok := ep.byFD[fd]
	ep.mu.Unlock()
	return i, ok && ep.recs[i].shard == int32(sh.idx)
}

// lookupCID is lookupFD by the NSM's cID.
func (sh *pairShard) lookupCID(cid uint32) (int32, bool) {
	i, ok := sh.ep.lookupAnyShard(cid)
	return i, ok && sh.ep.recs[i].shard == int32(sh.idx)
}

// lookupAnyShard returns the index of cid's record, whatever its home
// shard: the one exception to the affinity lookupFD and lookupCID hold,
// for a listener's OpNewConn, which rides the accepted flow's shard.
func (ep *enginePair) lookupAnyShard(cid uint32) (int32, bool) {
	ep.mu.Lock()
	i, ok := ep.byCID[cid]
	ep.mu.Unlock()
	return i, ok
}

// vmPumped and nsmPumped are a pairShard as the handler of a pump's
// follow-up, one notify latency plus the copy cost after the pump: the
// consumer of the rings the pump filled is kicked, and a pump that left
// elements parked runs again once that consumer has drained. Two
// follow-ups of one pump may be outstanding, so they are plain loop
// events, not a timer.
type vmPumped pairShard

func (p *vmPumped) HandleFrame(_ []byte, rejected uint64) {
	sh := (*pairShard)(p)
	ch := sh.ep.ch
	if ch.KickNSM != nil {
		ch.KickNSM(sh.idx)
	}
	if rejected > 0 && ch.KickVM != nil {
		ch.KickVM(sh.idx)
	}
	if sh.toNSM.Len() > 0 {
		sh.kickVM()
	}
}

type nsmPumped pairShard

func (p *nsmPumped) HandleFrame([]byte, uint64) {
	sh := (*pairShard)(p)
	ch := sh.ep.ch
	if ch.KickVM != nil {
		ch.KickVM(sh.idx)
	}
	// Draining the NSM-side rings may have unblocked parked ServiceLib
	// emissions; give it a chance to refill.
	if ch.KickNSM != nil {
		ch.KickNSM(sh.idx)
	}
	if sh.toVM.Len() > 0 {
		sh.kickNSM()
	}
}

// Attach registers a channel with the engine. notifyExtra is the NSM
// form's notification latency; readyAt gates service until the NSM boots.
// fdBase seeds the accepted-connection descriptor range; a VM attached
// to several NSM replicas gives each a disjoint base.
func (ce *CoreEngine) Attach(ch *nkchan.Pair, vmID, nsmID uint32, notifyExtra time.Duration, readyAt sim.Time, fdBase int32) {
	if fdBase <= 0 {
		fdBase = 1 << 20
	}
	ch.EnsureShards()
	ep := &enginePair{
		engine: ce, ch: ch, vmID: vmID, nsmID: nsmID,
		notify:  ce.cfg.NotifyLatency + notifyExtra,
		nextFD:  fdBase,
		readyAt: readyAt,
	}
	ep.byFD = make(map[int32]int32)
	ep.byCID = make(map[uint32]int32)
	ep.pendingFD = make(map[uint64]mapping)
	for i := range ch.Shards {
		sh := &pairShard{ep: ep, idx: i, rings: &ch.Shards[i]}
		sh.vmPump.Init(ce.clock, sh.pumpVM)
		sh.nsmPump.Init(ce.clock, sh.pumpNSM)
		ep.shards = append(ep.shards, sh)
	}
	ch.KickEngineVM = func(shard int) { ep.shards[ch.ShardIndex(shard)].kickVM() }
	ch.KickEngineNSM = func(shard int) { ep.shards[ch.ShardIndex(shard)].kickNSM() }
	ce.pairs = append(ce.pairs, ep)
}

// delay returns how long until the pair may pump: the notify latency,
// stretched while the NSM is still booting.
func (ep *enginePair) delay() time.Duration {
	d := ep.notify
	if now := ep.engine.clock.Now(); now < ep.readyAt {
		if wait := ep.readyAt.Sub(now); wait > d {
			d = wait
		}
	}
	return d
}

func (sh *pairShard) kickVM() {
	if !sh.vmPump.Pending() {
		sh.vmPump.Reset(sh.ep.delay())
	}
}

func (sh *pairShard) kickNSM() {
	if !sh.nsmPump.Pending() {
		sh.nsmPump.Reset(sh.ep.delay())
	}
}

// gated defers a pump that fires inside a freeze window (a kick
// scheduled before RebindNSM or a reset moved readyAt forward): the
// pump re-queues itself for the gate's end instead of running. This is
// what makes the migration stall a hard bound — no element crosses the
// engine while the pair is quiesced.
func (sh *pairShard) gated(rekick func()) bool {
	if sh.ep.engine.clock.Now() >= sh.ep.readyAt {
		return false
	}
	rekick()
	return true
}

// pumpVM drains the shard's VM job queue into its NSM job queue in
// batches, translating <VM ID, fd> to <NSM ID, cID> via the pair's
// mapping table. Each span pops with one atomic add,
// translates in place (per element — the mapping table must be
// consulted — but touching only the header fields translation needs,
// not a full decode/encode) and transfers contiguous runs with
// PushSpan; the follow-up kicks the NSM once.
func (sh *pairShard) pumpVM() {
	if sh.gated(sh.kickVM) {
		return
	}
	ep := sh.ep
	ce := ep.engine

	// Parked elements go first, to preserve order.
	count := sh.toNSM.Drain()
	count += sh.drain(sh.rings.VMJob, sh.rings.NSMJob, &sh.toNSM, sh.translateSlotToNSM)

	if count > 0 || sh.toNSM.Len() > 0 || sh.rejected > 0 {
		ce.stats.NqesVMToNSM += uint64(count)
		cost := time.Duration(count) * nqeCopyCost
		ce.clock.AfterFrame(ep.notify+cost, (*vmPumped)(sh), nil, sh.rejected)
		sh.rejected = 0
	}
}

// parkSpan sends the translated slots span[from:to) that a full ring
// refused through the backlog, and returns how many reached the ring
// after all (an injected stall refuses a span with room to spare).
func parkSpan(b *nkqueue.Backlog, dst *nkqueue.Queue, span []byte, from, to int) int {
	moved := 0
	for j := from; j < to; j++ {
		var e nqe.Element
		e.Decode(span[j*nqe.Size:])
		if b.Push(dst, &e) {
			moved++
		}
	}
	return moved
}

// drain moves batches from src to dst, translating each slot in place
// with translate, and returns how many elements moved. Each popped span
// goes over in contiguous runs of translated slots, one PushSpan each; a
// slot translate drops is skipped, translated once. When dst fills
// mid-run, the already-translated rest of the run parks in b so nothing
// is lost or reordered, and drain stops, leaving the rest queued.
func (sh *pairShard) drain(src, dst *nkqueue.Queue, b *nkqueue.Backlog, translate func(nqe.Slot) bool) int {
	moved := 0
	for b.Len() == 0 {
		span, n := src.FrontSpan(sh.ep.engine.cfg.Batch)
		if n == 0 {
			break
		}
		i := 0
		for i < n && b.Len() == 0 {
			runStart := i
			for i < n && translate(nqe.Slot(span[i*nqe.Size:(i+1)*nqe.Size])) {
				i++
			}
			if i > runStart {
				got := dst.PushSpan(span[runStart*nqe.Size : i*nqe.Size])
				moved += got + parkSpan(b, dst, span, runStart+got, i)
			}
			if i < n {
				i++ // skip the dropped slot
			}
		}
		src.ReleaseSpan(i)
	}
	return moved
}

// translateSlotToNSM validates a job element and patches it in place for
// the NSM side. It reports false when the element must be dropped (the
// VM has already been answered with an error completion where
// appropriate).
func (sh *pairShard) translateSlotToNSM(s nqe.Slot) bool {
	ep := sh.ep
	ce := ep.engine
	if s.Validate() != nil || s.VMID() != ep.vmID {
		ce.stats.BadElements++
		return false
	}
	s.SetNSMID(ep.nsmID)
	switch s.Op() {
	case nqe.OpSocket:
		// The cID does not exist yet; remember the fd for the
		// completion.
		ep.mu.Lock()
		ep.pendingFD[s.Seq()] = mapping{fd: s.FD(), shard: int32(sh.idx)}
		ep.mu.Unlock()
	default:
		i, ok := sh.lookupFD(s.FD())
		if !ok || s.Op() == nqe.OpSend && !ep.sendDescriptorOK(s) {
			sh.reject(s)
			return false
		}
		m := &ep.recs[i]
		s.SetCID(m.cid)
		switch s.Op() {
		case nqe.OpSend, nqe.OpSetSockOpt, nqe.OpListen:
			m.owed++
		case nqe.OpClose:
			m.guestClosed = true
			ep.settle(i)
		}
	}
	ce.stats.Translated++
	if t := s.Trace(); t != 0 {
		ce.tracer.Stamp(t, "engine.vm-pump", 0)
	}
	return true
}

// sendDescriptorOK reports whether an OpSend's data descriptor names a
// chunk of the pair's region that is handed out, with a length that fits
// the chunk. The descriptor is guest-chosen: one that fails here would
// panic ServiceLib, and with it every tenant of a shared NSM. A pair
// built without a region carries no data to check.
func (ep *enginePair) sendDescriptorOK(s nqe.Slot) bool {
	pages := ep.ch.Pages
	return pages == nil || int(s.DataLen()) <= pages.ChunkSize() && pages.Held(shm.Chunk{Offset: s.DataOff()})
}

// reject answers a job the engine will not forward (an unknown fd or a
// forged send descriptor) with an error completion. The data offset in a
// rejected element is guest-controlled and cannot be trusted, so the
// engine must NOT free it — a forged element could otherwise release a
// chunk owned by a live transfer. Any real chunk behind a bogus send
// stays charged to the misbehaving guest's own credit.
func (sh *pairShard) reject(s nqe.Slot) {
	sh.ep.engine.stats.BadElements++
	if sh.toVM.Push(sh.rings.VMCompletion, &nqe.Element{
		Op: s.Op(), FD: s.FD(), Seq: s.Seq(), VMID: sh.ep.vmID,
		Source: nqe.FromCore, Status: nqe.StatusInvalid,
		Flags: nqe.FlagCompletion,
	}) {
		sh.rejected++
	} else {
		sh.kickNSM() // parked: pumpNSM delivers it and wakes the VM
	}
}

// pumpNSM drains the shard's NSM completion and receive queues toward
// the VM in batches, translating <NSM ID, cID> back to <VM ID, fd> in
// place.
func (sh *pairShard) pumpNSM() {
	if sh.gated(sh.kickNSM) {
		return
	}
	ep := sh.ep
	ce := ep.engine

	count := sh.toVM.Drain()
	count += sh.drain(sh.rings.NSMCompletion, sh.rings.VMCompletion, &sh.toVM, sh.translateSlotToVM)
	count += sh.drain(sh.rings.NSMReceive, sh.rings.VMReceive, &sh.toVM, sh.translateSlotToVM)

	if count > 0 || sh.toVM.Len() > 0 {
		ce.stats.NqesNSMToVM += uint64(count)
		cost := time.Duration(count) * nqeCopyCost
		ce.clock.AfterFrame(ep.notify+cost, (*nsmPumped)(sh), nil, 0)
	}
}

// translateSlotToVM patches one NSM-side element in place for the VM,
// maintaining the pair's fd↔cID mapping. It reports false when the
// element must be dropped.
func (sh *pairShard) translateSlotToVM(s nqe.Slot) bool {
	ep := sh.ep
	ce := ep.engine
	s.SetVMID(ep.vmID)
	switch s.Op() {
	case nqe.OpSocket:
		// Completion of a socket creation: install the mapping.
		ep.mu.Lock()
		m, ok := ep.pendingFD[s.Seq()]
		ok = ok && m.shard == int32(sh.idx)
		if ok {
			delete(ep.pendingFD, s.Seq())
		}
		ep.mu.Unlock()
		if !ok {
			ce.stats.BadElements++
			return false
		}
		m.cid = s.CID()
		ep.install(m)
		s.SetFD(m.fd)
	case nqe.OpNewConn:
		// A new accepted flow: mint a descriptor for the VM and map it
		// to the NSM's new cID (carried in Arg1). The event rides the
		// NEW flow's shard, which is rarely the listener's; the mapping
		// installs with this shard as its home, where every later
		// element of the flow rides. The listener settles first: the
		// new mapping may take its slot.
		li, ok := ep.lookupAnyShard(s.CID())
		if !ok {
			ce.stats.BadElements++
			return false
		}
		s.SetFD(ep.recs[li].fd)
		ep.recs[li].acceptsDue--
		ep.settle(li)
		ep.install(mapping{fd: ep.nextFD, cid: uint32(s.Arg1()), shard: int32(sh.idx)})
		s.SetArg1(uint64(uint32(ep.nextFD)))
		ep.nextFD++
	default:
		i, ok := sh.lookupCID(s.CID())
		if !ok {
			ce.stats.BadElements++
			// A dropped data event's chunk has no other owner to free it.
			pages, c := ep.ch.Pages, shm.Chunk{Offset: s.DataOff()}
			if s.Op() == nqe.OpNewData && pages != nil && pages.Held(c) {
				pages.Free(c)
			}
			return false
		}
		m := &ep.recs[i]
		s.SetFD(m.fd)
		switch s.Op() {
		case nqe.OpConnClosed:
			if !m.nsmClosed { // a repeat changes nothing
				m.nsmClosed = true
				m.acceptsDue += int32(s.Arg1())
				ep.settle(i)
			}
		case nqe.OpSend, nqe.OpSetSockOpt, nqe.OpListen:
			// A completion: the job it answers is no longer owed.
			if m.owed > 0 {
				m.owed--
			}
			ep.settle(i)
		}
	}
	ce.stats.Translated++
	if t := s.Trace(); t != 0 {
		ce.tracer.Stamp(t, "engine.nsm-pump", 0)
	}
	return true
}

// RebindNSM retargets every channel served by oldID onto newID and
// resumes pumping at resumeAt. The fd↔cID tables, the descriptor
// allocator, backlogs, and queued elements survive verbatim: the
// mapping relation is an invariant of the guest-visible sockets, not
// of the serving module, and the migration protocol reconstructs the
// same cIDs on the successor. This is the commit point of a migration
// — after it, ResetNSM(oldID) no longer matches these channels, so an
// abort must happen before rebinding. Returns the number of channels
// rebound.
func (ce *CoreEngine) RebindNSM(oldID, newID uint32, resumeAt sim.Time) int {
	n := 0
	for _, ep := range ce.pairs {
		if ep.nsmID != oldID {
			continue
		}
		ep.nsmID = newID
		ep.readyAt = resumeAt
		n++
		pair := ep
		// Wake both directions once the gate opens: guest jobs queued
		// during the stall pump to the successor, and the successor's
		// first emissions pump back.
		ce.clock.AfterFunc(pair.delay(), func() {
			for _, sh := range pair.shards {
				sh.kickVM()
				sh.kickNSM()
			}
		})
	}
	return n
}

// ResetNSM handles the crash of module nsmID: for every channel the
// module served, in-flight elements are discarded (their huge-page
// chunks returned to the pool the hypervisor owns), socket jobs the
// module will never answer get error completions, every mapped
// connection is reported closed-by-reset to its guest, and the mapping
// tables are cleared. readyAt gates pumping until the replacement
// module has booted; the guest-facing notifications go out immediately.
func (ce *CoreEngine) ResetNSM(nsmID uint32, readyAt sim.Time) {
	for _, ep := range ce.pairs {
		if ep.nsmID == nsmID {
			ep.reset(readyAt)
		}
	}
}

func (ep *enginePair) reset(readyAt sim.Time) {
	ce := ep.engine
	ce.stats.NSMResets++
	ep.readyAt = readyAt
	// Socket jobs already forwarded will never complete, and every mapped
	// connection died with the module. The table empties; each shard
	// answers its own pending OpSockets with error completions (so the
	// guest's deferred operations fail fast instead of wedging) and tells
	// each guest socket living there it was reset.
	socks := make([][]nqe.Element, len(ep.shards))
	conns := make([][]nqe.Element, len(ep.shards))
	ep.mu.Lock()
	for seq, p := range ep.pendingFD {
		socks[p.shard] = append(socks[p.shard], nqe.Element{
			Op: nqe.OpSocket, FD: p.fd, Seq: seq, VMID: ep.vmID,
			Source: nqe.FromCore, Status: nqe.StatusConnReset,
			Flags: nqe.FlagCompletion,
		})
	}
	for fd, i := range ep.byFD {
		home := ep.recs[i].shard
		conns[home] = append(conns[home], nqe.Element{
			Op: nqe.OpConnClosed, FD: fd, VMID: ep.vmID,
			Source: nqe.FromCore, Status: nqe.StatusConnReset,
		})
		ce.stats.ResetConns++
	}
	clear(ep.pendingFD)
	clear(ep.byFD)
	clear(ep.byCID)
	ep.recs, ep.free = ep.recs[:0], ep.free[:0]
	ep.mu.Unlock()
	// Shards reset in ascending order, each notice list sorted, so crash
	// notifications replay deterministically.
	for _, sh := range ep.shards {
		sort.Slice(socks[sh.idx], func(i, j int) bool { return socks[sh.idx][i].Seq < socks[sh.idx][j].Seq })
		sort.Slice(conns[sh.idx], func(i, j int) bool { return conns[sh.idx][i].FD < conns[sh.idx][j].FD })
		sh.reset(socks[sh.idx], conns[sh.idx])
	}
	// Wake the guest to process the notifications now — the boot gate
	// only holds back queue pumping, not crash reporting.
	ce.clock.AfterFunc(ep.notify, func() {
		if ep.ch.KickVM != nil {
			for _, sh := range ep.shards {
				ep.ch.KickVM(sh.idx)
			}
		}
	})
}

// reset discards the shard's in-flight elements, then queues its crash
// notices: socks toward the VM's completion ring, conns toward its
// receive ring.
func (sh *pairShard) reset(socks, conns []nqe.Element) {
	// The module's queues die with it. NSM-side output queues hold
	// events the module produced before crashing; the NSM job queue
	// holds work it never got to. Both are gone — only the data chunks
	// survive, back into the pool.
	sh.discardQueue(sh.rings.NSMCompletion)
	sh.discardQueue(sh.rings.NSMReceive)
	sh.discardQueue(sh.rings.NSMJob)
	sh.toNSM.Discard(sh.discard)
	sh.toVM.Discard(sh.discard)

	for i := range socks {
		sh.toVM.Push(sh.rings.VMCompletion, &socks[i])
	}
	for i := range conns {
		sh.toVM.Push(sh.rings.VMReceive, &conns[i])
	}
	// Notifications the rings had no room for wait for pumpNSM.
	if sh.toVM.Len() > 0 {
		sh.kickNSM()
	}
}

// discardQueue drains a queue the crashed module owned, returning any
// huge-page data chunks carried by the discarded elements.
func (sh *pairShard) discardQueue(q *nkqueue.Queue) {
	var e nqe.Element
	for q.Pop(&e) {
		sh.discard(&e)
	}
}

// discard drops an in-flight element of a crashed module, returning its
// data chunk to the pair's pool. Chunk ownership travels with the data
// direction: a VM-sourced OpSend job owns its chunk until the NSM
// consumes it, and an NSM-sourced OpNewData event owns its chunk until
// the guest copies it out. An OpSend *completion* (NSM-sourced) echoes
// DataLen but its chunk was already freed when the module consumed the
// data.
func (sh *pairShard) discard(e *nqe.Element) {
	sh.ep.engine.stats.DiscardedElements++
	owns := (e.Op == nqe.OpSend && e.Source == nqe.FromVM) ||
		(e.Op == nqe.OpNewData && e.Source == nqe.FromNSM)
	if owns && e.DataLen > 0 {
		sh.ep.ch.Pages.Free(shm.Chunk{Offset: e.DataOff})
	}
	// A discarded element's span will never complete; abandon it.
	sh.ep.engine.tracer.Drop(e.Trace)
}
