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

// EngineConfig shapes the CoreEngine's cost model.
type EngineConfig struct {
	// NotifyLatency is the engine's own wakeup latency per batched
	// interrupt (added to the NSM form's notify latency). Default
	// 1 µs.
	NotifyLatency time.Duration
	// NqeCopyCost is the per-element queue-to-queue copy cost; §4.2
	// measures ~12 ns on the prototype (and bench_test.go reproduces
	// it on real memory). Default 12 ns.
	NqeCopyCost time.Duration
	// Batch caps how many nqes one pump drains per ring span. Larger
	// batches amortize kicks and atomic publication over more
	// elements (§3.2 "batched interrupts"); the queue itself bounds
	// worst-case latency. Default 64.
	Batch int
	// Tracer, when set, stamps traced elements as they cross the
	// engine ("engine.vm-pump" / "engine.nsm-pump" hops).
	Tracer *telemetry.Tracer
}

// mappingGrace is how long a closed listener's fd↔cID entry survives its
// conn-closed event: an OpNewConn for the listener rides the accepted
// flow's shard, not the listener's, and may be translated after the
// close (lookupListener). Every other mapping retires as soon as both
// sides are done with it (settle).
const mappingGrace = 2 * time.Second

func (c *EngineConfig) fillDefaults() {
	if c.NotifyLatency <= 0 {
		c.NotifyLatency = time.Microsecond
	}
	if c.NqeCopyCost <= 0 {
		c.NqeCopyCost = 12 * time.Nanosecond
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

// Mappings returns the total live fd↔cID entries across pairs and
// shards (monitoring; a steadily growing value would indicate a
// leak). Safe to call from any goroutine.
func (ce *CoreEngine) Mappings() int {
	n := 0
	for _, ep := range ce.pairs {
		for _, sh := range ep.shards {
			sh.mu.Lock()
			n += len(sh.byFD)
			sh.mu.Unlock()
		}
	}
	return n
}

// CheckFlowAffinity verifies the shard-for-life invariant on the
// mapping table: a descriptor (and its cID) may live on exactly one
// shard of its pair. A violation means an nqe for a live flow crossed
// shards — the bug class sharding must exclude. Safe to call from any
// goroutine.
func (ce *CoreEngine) CheckFlowAffinity() error {
	for _, ep := range ce.pairs {
		fdShard := make(map[int32]int)
		cidShard := make(map[uint32]int)
		for _, sh := range ep.shards {
			sh.mu.Lock()
			for fd := range sh.byFD {
				if prev, dup := fdShard[fd]; dup {
					sh.mu.Unlock()
					return fmt.Errorf("vm%d/nsm%d: fd %d mapped on shards %d and %d",
						ep.vmID, ep.nsmID, fd, prev, sh.idx)
				}
				fdShard[fd] = sh.idx
			}
			for cid := range sh.byCID {
				if prev, dup := cidShard[cid]; dup {
					sh.mu.Unlock()
					return fmt.Errorf("vm%d/nsm%d: cID %d mapped on shards %d and %d",
						ep.vmID, ep.nsmID, cid, prev, sh.idx)
				}
				cidShard[cid] = sh.idx
			}
			sh.mu.Unlock()
		}
	}
	return nil
}

// CoreEngine is the hypervisor daemon of §3: it copies nqes between VM
// and NSM queues, owns the <VM ID, fd> ↔ <NSM ID, cID> connection
// mapping table, and assigns descriptors for accepted connections.
//
// With a sharded channel the engine runs one logical pump per shard
// (the journal version's multi-queue NSM): each shard owns a slice of
// the mapping table and its own backlogs, and a flow's elements
// only ever ride the shard its RSS hash pinned it to. All pumps
// execute on the simulation loop; same-instant pumps run in kick
// order, which producers issue in ascending shard order, keeping runs
// pure functions of the seed.
type CoreEngine struct {
	clock sim.Clock
	cfg   EngineConfig
	pairs []*enginePair
	stats EngineStats
	// grace holds the mapping retirements of closed listeners: every one
	// waits mappingGrace, so they come due in closing order and share one
	// event-loop entry.
	grace sim.Lane
}

// NewCoreEngine builds the daemon.
func NewCoreEngine(clock sim.Clock, cfg EngineConfig) *CoreEngine {
	cfg.fillDefaults()
	ce := &CoreEngine{clock: clock, cfg: cfg}
	ce.grace.Init(clock)
	return ce
}

// Stats returns a copy of the counters.
func (ce *CoreEngine) Stats() EngineStats { return ce.stats }

// Pairs returns the number of attached VM↔NSM channels.
func (ce *CoreEngine) Pairs() int { return len(ce.pairs) }

// enginePair is one VM↔NSM channel's state inside the engine. The
// translation state lives in its shards; the pair holds what is
// shard-invariant: identity, latency, the boot gate, and the
// accepted-connection descriptor allocator.
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
}

// pairShard is one shard's pump state: its rings, its slice of the
// fd↔cID mapping table, and its backlogs. The mutex guards the
// maps for management-plane readers (Mappings, CheckFlowAffinity);
// all mutation happens on the loop goroutine, and only the loop
// goroutine reads the records.
type pairShard struct {
	ep    *enginePair
	idx   int
	rings *nkchan.Rings

	mu sync.Mutex
	// byFD and byCID index this shard's mapping records from either
	// side, so the lookup that translates an element also finds its
	// record. A retired record's slot waits in free for the next
	// mapping, so connection churn reuses records instead of growing
	// recs.
	byFD  map[int32]int32
	byCID map[uint32]int32
	recs  []mapping
	free  []int32
	// pendingFD correlates OpSocket completions back to the guest fd
	// (by Seq) so the mapping can be installed.
	pendingFD map[uint64]int32

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
// flags and count say when nothing can translate through it any more:
// the guest's OpClose is the last job GuestLib issues for an fd, the
// NSM's OpConnClosed is the last event ServiceLib emits for a cID (but
// for the readiness entry a FlagReadyFollows close announces), and a
// job ServiceLib answers is answered exactly once (DESIGN.md §10,
// "mapping lifecycle").
type mapping struct {
	fd  int32
	cid uint32
	// owed counts forwarded jobs whose completion has not been
	// translated yet: OpSend, OpSetSockOpt, OpPollCtl, OpBind and
	// OpListen, the jobs ServiceLib always answers.
	owed uint32
	// guestClosed and nsmClosed record the translated OpClose and
	// OpConnClosed. readyDue says the OpConnClosed carried
	// FlagReadyFollows and the readiness entry reporting the close has
	// not been translated yet. listener marks a socket the guest asked to
	// listen, whose retirement waits mappingGrace instead.
	guestClosed, nsmClosed, readyDue, listener bool
}

// install maps fd to cid on this shard, in a recycled record when one is
// free.
func (sh *pairShard) install(fd int32, cid uint32) {
	var i int32
	if n := len(sh.free); n > 0 {
		i = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		i = int32(len(sh.recs))
		sh.recs = append(sh.recs, mapping{})
	}
	sh.recs[i] = mapping{fd: fd, cid: cid}
	sh.mu.Lock()
	sh.byFD[fd] = i
	sh.byCID[cid] = i
	sh.mu.Unlock()
}

// settle retires record i once both sides have closed and every job
// ServiceLib answers has been answered, and the close's readiness entry,
// if one follows, has passed. A listener's record stays: its retirement
// waits mappingGrace from the OpConnClosed.
func (sh *pairShard) settle(i int32) {
	m := &sh.recs[i]
	if m.guestClosed && m.nsmClosed && m.owed == 0 && !m.readyDue && !m.listener {
		sh.retire(i)
	}
}

// retire deletes record i's two table entries and frees its slot. An
// entry a forged duplicate fd or cID has since taken over is left alone.
func (sh *pairShard) retire(i int32) {
	m := &sh.recs[i]
	sh.mu.Lock()
	if j, ok := sh.byFD[m.fd]; ok && j == i {
		delete(sh.byFD, m.fd)
	}
	if j, ok := sh.byCID[m.cid]; ok && j == i {
		delete(sh.byCID, m.cid)
	}
	sh.mu.Unlock()
	*m = mapping{}
	sh.free = append(sh.free, i)
}

// graceDone is a pairShard as the handler of a closed listener's
// mapping grace running out; arg carries the fd above the cID. A reset
// may have cleared the tables since, so the record must still be the
// listener's.
type graceDone pairShard

func (g *graceDone) HandleFrame(_ []byte, arg uint64) {
	sh := (*pairShard)(g)
	sh.mu.Lock()
	i, ok := sh.byCID[uint32(arg)]
	sh.mu.Unlock()
	if ok && sh.recs[i].fd == int32(arg>>32) {
		sh.retire(i)
	}
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
	for i := range ch.Shards {
		sh := &pairShard{
			ep: ep, idx: i, rings: &ch.Shards[i],
			byFD:      make(map[int32]int32),
			byCID:     make(map[uint32]int32),
			pendingFD: make(map[uint64]int32),
		}
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
// scheduled before FreezeNSM/RebindNSM moved readyAt forward): the
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
// batches, translating <VM ID, fd> to <NSM ID, cID> via the shard's
// slice of the mapping table. Each span pops with one atomic add,
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
	for sh.toNSM.Len() == 0 {
		span, n := sh.rings.VMJob.FrontSpan(ce.cfg.Batch)
		if n == 0 {
			break
		}
		handled, moved := sh.translateSpanToNSM(span, n)
		count += moved
		sh.rings.VMJob.ReleaseSpan(handled)
	}

	if count > 0 || sh.toNSM.Len() > 0 || sh.rejected > 0 {
		ce.stats.NqesVMToNSM += uint64(count)
		cost := time.Duration(count) * ce.cfg.NqeCopyCost
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

// translateSpanToNSM validates and translates one popped span in place,
// pushing contiguous runs of surviving slots into the NSM job queue.
// It returns how many slots of the span were fully handled (pushed,
// dropped, or parked) and how many were pushed. When the NSM job queue
// fills mid-run, the already-translated remainder of the run parks in
// toNSM so nothing is lost or reordered.
func (sh *pairShard) translateSpanToNSM(span []byte, n int) (handled, moved int) {
	ce := sh.ep.engine
	i := 0
	for i < n && sh.toNSM.Len() == 0 {
		// Grow a contiguous run of translatable slots.
		runStart := i
		for i < n {
			s := nqe.Slot(span[i*nqe.Size : (i+1)*nqe.Size])
			if s.Validate() != nil || s.VMID() != sh.ep.vmID {
				ce.stats.BadElements++
				break
			}
			if !sh.translateSlotToNSM(s) {
				break
			}
			i++
		}
		if i > runStart {
			got := sh.rings.NSMJob.PushSpan(span[runStart*nqe.Size : i*nqe.Size])
			moved += got + parkSpan(&sh.toNSM, sh.rings.NSMJob, span, runStart+got, i)
		}
		if i < n {
			i++ // skip the dropped slot
		}
	}
	return i, moved
}

// translateSlotToNSM patches one job element in place for the NSM side.
// It reports false when the element must be dropped (the VM has already
// been answered with an error completion where appropriate).
func (sh *pairShard) translateSlotToNSM(s nqe.Slot) bool {
	ep := sh.ep
	ce := ep.engine
	s.SetNSMID(ep.nsmID)
	switch s.Op() {
	case nqe.OpSocket:
		// The cID does not exist yet; remember the fd for the
		// completion.
		sh.mu.Lock()
		sh.pendingFD[s.Seq()] = s.FD()
		sh.mu.Unlock()
	default:
		sh.mu.Lock()
		i, ok := sh.byFD[s.FD()]
		sh.mu.Unlock()
		if !ok {
			// Unknown descriptor: answer the VM with an error. The data
			// offset in a rejected element is guest-controlled and cannot
			// be trusted, so the engine must NOT free it — a forged
			// element could otherwise release a chunk owned by a live
			// transfer. Any real chunk behind a bogus send stays charged
			// to the misbehaving guest's own credit.
			ce.stats.BadElements++
			if sh.toVM.Push(sh.rings.VMCompletion, &nqe.Element{
				Op: s.Op(), FD: s.FD(), Seq: s.Seq(), VMID: ep.vmID,
				Source: nqe.FromCore, Status: nqe.StatusInvalid,
				Flags: nqe.FlagCompletion,
			}) {
				sh.rejected++
			} else {
				sh.kickNSM() // parked: pumpNSM delivers it and wakes the VM
			}
			return false
		}
		m := &sh.recs[i]
		s.SetCID(m.cid)
		switch s.Op() {
		case nqe.OpListen:
			m.listener = true
			m.owed++
		case nqe.OpSend, nqe.OpSetSockOpt, nqe.OpPollCtl, nqe.OpBind:
			m.owed++
		case nqe.OpClose:
			m.guestClosed = true
			sh.settle(i)
		}
	}
	ce.stats.Translated++
	if t := s.Trace(); t != 0 {
		ce.cfg.Tracer.Stamp(t, "engine.vm-pump", 0)
	}
	return true
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
	count += sh.drainNSMQueue(sh.rings.NSMCompletion, sh.rings.VMCompletion)
	count += sh.drainNSMQueue(sh.rings.NSMReceive, sh.rings.VMReceive)

	if count > 0 || sh.toVM.Len() > 0 {
		ce.stats.NqesNSMToVM += uint64(count)
		cost := time.Duration(count) * ce.cfg.NqeCopyCost
		ce.clock.AfterFrame(ep.notify+cost, (*nsmPumped)(sh), nil, 0)
	}
}

// drainNSMQueue moves batches from one NSM-side output queue to its
// VM-side peer, translating in place, and returns how many elements
// moved. It stops (leaving work queued or parked) when the VM-side
// queue fills.
func (sh *pairShard) drainNSMQueue(src, dst *nkqueue.Queue) int {
	ce := sh.ep.engine
	moved := 0
	for sh.toVM.Len() == 0 {
		span, n := src.FrontSpan(ce.cfg.Batch)
		if n == 0 {
			break
		}
		handled := 0
		for handled < n && sh.toVM.Len() == 0 {
			// Grow a contiguous run of translatable slots.
			runStart := handled
			for handled < n {
				s := nqe.Slot(span[handled*nqe.Size : (handled+1)*nqe.Size])
				if !sh.translateSlotToVM(s) {
					break
				}
				handled++
			}
			if handled > runStart {
				got := dst.PushSpan(span[runStart*nqe.Size : handled*nqe.Size])
				moved += got + parkSpan(&sh.toVM, dst, span, runStart+got, handled)
			} else if handled < n {
				handled++ // skip the dropped slot
			}
		}
		src.ReleaseSpan(handled)
	}
	return moved
}

// lookupListener resolves a listener's cID to the shard and index of its
// mapping record, checking this shard first and then its siblings in
// ascending order. Accepted connections hash to their own shard, which
// is rarely the listener's: the OpNewConn control element is the one
// place a pump may read another shard's table slice (one lock at a time,
// never nested).
func (sh *pairShard) lookupListener(cid uint32) (*pairShard, int32, bool) {
	if i, ok := sh.lookupCID(cid); ok {
		return sh, i, true
	}
	for _, other := range sh.ep.shards {
		if other == sh {
			continue
		}
		if i, ok := other.lookupCID(cid); ok {
			return other, i, true
		}
	}
	return nil, 0, false
}

// lookupCID returns the index of cid's mapping record on this shard.
func (sh *pairShard) lookupCID(cid uint32) (int32, bool) {
	sh.mu.Lock()
	i, ok := sh.byCID[cid]
	sh.mu.Unlock()
	return i, ok
}

// translateSlotToVM patches one NSM-side element in place for the VM,
// maintaining the shard's fd↔cID mapping exactly as the per-element
// path did. It reports false when the element must be dropped.
func (sh *pairShard) translateSlotToVM(s nqe.Slot) bool {
	ep := sh.ep
	ce := ep.engine
	s.SetVMID(ep.vmID)
	switch s.Op() {
	case nqe.OpSocket:
		// Completion of a socket creation: install the mapping.
		sh.mu.Lock()
		fd, ok := sh.pendingFD[s.Seq()]
		if !ok {
			sh.mu.Unlock()
			ce.stats.BadElements++
			return false
		}
		delete(sh.pendingFD, s.Seq())
		sh.mu.Unlock()
		sh.install(fd, s.CID())
		s.SetFD(fd)
	case nqe.OpConnClosed:
		i, ok := sh.lookupCID(s.CID())
		if !ok {
			ce.stats.BadElements++
			return false
		}
		m := &sh.recs[i]
		s.SetFD(m.fd)
		switch {
		case m.nsmClosed:
			// A repeat changes nothing.
		case m.listener:
			// An OpNewConn for the listener may still be in flight on a
			// sibling shard; it must find the listener for a while yet.
			m.nsmClosed = true
			ce.grace.AfterFrame(mappingGrace, (*graceDone)(sh), nil, uint64(uint32(m.fd))<<32|uint64(m.cid))
		default:
			m.nsmClosed = true
			m.readyDue = s.Flags()&nqe.FlagReadyFollows != 0
			sh.settle(i)
		}
	case nqe.OpNewConn:
		// A new accepted flow: mint a descriptor for the VM and map it
		// to the NSM's new cID (carried in Arg1). The event rides the
		// NEW flow's shard; the listener usually lives on another, so
		// the lookup may cross shards — the mapping installs here, on
		// the flow's home shard, where every later element will look
		// it up.
		owner, li, ok := sh.lookupListener(s.CID())
		if !ok {
			ce.stats.BadElements++
			return false
		}
		newCID := uint32(s.Arg1())
		newFD := ep.nextFD
		ep.nextFD++
		s.SetFD(owner.recs[li].fd)
		sh.install(newFD, newCID)
		s.SetArg1(uint64(uint32(newFD)))
	case nqe.OpReady:
		return sh.translateReady(s)
	default:
		i, ok := sh.lookupCID(s.CID())
		if !ok {
			ce.stats.BadElements++
			return false
		}
		m := &sh.recs[i]
		s.SetFD(m.fd)
		switch s.Op() {
		case nqe.OpSend, nqe.OpSetSockOpt, nqe.OpPollCtl, nqe.OpBind, nqe.OpListen:
			// A completion: the job it answers is no longer owed.
			if m.owed > 0 {
				m.owed--
			}
			sh.settle(i)
		}
	}
	ce.stats.Translated++
	if t := s.Trace(); t != 0 {
		ce.cfg.Tracer.Stamp(t, "engine.nsm-pump", 0)
	}
	return true
}

// translateReady rewrites a coalesced readiness event in place: every
// packed cID becomes the guest's fd. A socket whose mapping is already
// retired (both sides closed, nothing owed) is compacted out rather than
// failing the whole batch — readiness is a hint, and a straggler entry
// for a dead socket must not suppress wakeups for live ones. An event
// left with no live entries is dropped and its chunk freed here (the
// engine owns an NSM-sourced OpReady chunk exactly like an OpNewData
// chunk).
func (sh *pairShard) translateReady(s nqe.Slot) bool {
	ep := sh.ep
	ce := ep.engine
	if s.DataLen() == 0 {
		// Descriptorless single-socket form: the id rides the CID field.
		// lookupListener's sibling fallback covers entries whose
		// mapping lives on another shard.
		owner, i, ok := sh.lookupListener(s.CID())
		if !ok {
			return false
		}
		s.SetFD(owner.recs[i].fd)
		owner.readyPassed(i, uint32(s.Arg1()))
		ce.stats.Translated++
		return true
	}
	buf := ep.ch.Pages.Bytes(shm.Chunk{Offset: s.DataOff()})
	n := int(s.Arg0())
	if fit := int(s.DataLen()) / nqe.ReadyEntrySize; n > fit {
		n = fit
	}
	kept := 0
	for i := 0; i < n; i++ {
		cid, mask := nqe.ReadyEntryAt(buf, i)
		owner, j, ok := sh.lookupListener(cid)
		if !ok {
			continue
		}
		nqe.PutReadyEntry(buf[kept*nqe.ReadyEntrySize:], uint32(owner.recs[j].fd), mask)
		kept++
		owner.readyPassed(j, mask)
	}
	if kept == 0 {
		ep.ch.Pages.Free(shm.Chunk{Offset: s.DataOff()})
		return false
	}
	s.SetArg0(uint64(kept))
	s.SetDataLen(uint32(kept * nqe.ReadyEntrySize))
	ce.stats.Translated++
	return true
}

// readyPassed notes a translated readiness entry for record i: the one
// that reports the close is the last element a FlagReadyFollows close
// promised, after which the mapping may retire.
func (sh *pairShard) readyPassed(i int32, mask uint32) {
	if m := &sh.recs[i]; m.readyDue && mask&nqe.ReadyClosed != 0 {
		m.readyDue = false
		sh.settle(i)
	}
}

// FreezeNSM gates pumping on every channel served by nsmID until
// `until`: kicks issued from now on stretch to the gate, and pumps
// already scheduled re-queue themselves when they fire inside the
// window. Unlike ResetNSM nothing is discarded — ring contents,
// backlogs, mapping tables, and pending socket jobs all survive. This
// is the quiesce step of a live migration: the guest keeps producing
// into its rings and observes only a bounded stall. Returns the number
// of channels frozen.
func (ce *CoreEngine) FreezeNSM(nsmID uint32, until sim.Time) int {
	n := 0
	for _, ep := range ce.pairs {
		if ep.nsmID == nsmID {
			ep.readyAt = until
			n++
		}
	}
	return n
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
	// Shards reset in ascending order so crash notifications replay
	// deterministically.
	for _, sh := range ep.shards {
		sh.reset()
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

func (sh *pairShard) reset() {
	ep := sh.ep
	ce := ep.engine

	// The module's queues die with it. NSM-side output queues hold
	// events the module produced before crashing; the NSM job queue
	// holds work it never got to. Both are gone — only the data chunks
	// survive, back into the pool.
	sh.discardQueue(sh.rings.NSMCompletion)
	sh.discardQueue(sh.rings.NSMReceive)
	sh.discardQueue(sh.rings.NSMJob)
	sh.toNSM.Discard(sh.discard)
	sh.toVM.Discard(sh.discard)

	// Socket jobs already forwarded will never complete: answer them
	// with error completions so the guest's deferred operations fail
	// fast instead of wedging. Sorted for deterministic replay.
	sh.mu.Lock()
	seqs := make([]uint64, 0, len(sh.pendingFD))
	for seq := range sh.pendingFD {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	pending := make(map[uint64]int32, len(sh.pendingFD))
	for seq, fd := range sh.pendingFD {
		pending[seq] = fd
	}
	sh.pendingFD = make(map[uint64]int32)
	// Every mapped connection died with the module: collect the fds to
	// tell each guest socket it was reset.
	fds := make([]int32, 0, len(sh.byFD))
	for fd := range sh.byFD {
		fds = append(fds, fd)
	}
	sort.Slice(fds, func(i, j int) bool { return fds[i] < fds[j] })
	sh.byFD = make(map[int32]int32)
	sh.byCID = make(map[uint32]int32)
	sh.mu.Unlock()
	sh.recs, sh.free = sh.recs[:0], sh.free[:0]

	for _, seq := range seqs {
		sh.toVM.Push(sh.rings.VMCompletion, &nqe.Element{
			Op: nqe.OpSocket, FD: pending[seq], Seq: seq, VMID: ep.vmID,
			Source: nqe.FromCore, Status: nqe.StatusConnReset,
			Flags: nqe.FlagCompletion,
		})
	}
	for _, fd := range fds {
		sh.toVM.Push(sh.rings.VMReceive, &nqe.Element{
			Op: nqe.OpConnClosed, FD: fd, VMID: ep.vmID,
			Source: nqe.FromCore, Status: nqe.StatusConnReset,
		})
	}
	ce.stats.ResetConns += uint64(len(fds))
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
		(e.Op == nqe.OpNewData && e.Source == nqe.FromNSM) ||
		(e.Op == nqe.OpReady && e.Source == nqe.FromNSM)
	if owns && e.DataLen > 0 {
		sh.ep.ch.Pages.Free(shm.Chunk{Offset: e.DataOff})
	}
	// A discarded element's span will never complete; abandon it.
	sh.ep.engine.cfg.Tracer.Drop(e.Trace)
}
