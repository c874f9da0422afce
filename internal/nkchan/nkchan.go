// Package nkchan defines the shared-memory channel between one tenant
// VM and its Network Stack Module: the six queues of Figure 3 (job,
// completion, and receive queues on each side) plus the huge-page data
// region. GuestLib owns the VM side, ServiceLib the NSM side, and the
// CoreEngine shuttles nqes between them.
//
// A channel may be sharded (the journal version's multi-queue NSM):
// each shard owns a six-ring set, flows are pinned to shards by the
// vswitch RSS hash, and an element's shard is implied by the rings it
// rides — the wire format carries no shard field. Every ring of every
// shard draws its slots from the pair's one slot reserve, so a shard
// costs the segments its traffic occupies, not its rings' depth.
package nkchan

import (
	"netkernel/internal/nkqueue"
	"netkernel/internal/nqe"
	"netkernel/internal/shm"
)

// chunkSize is the data-chunk granularity: 8 KB, the chunk size of
// Figure 4's caption.
const chunkSize = 8 << 10

// Config shapes a channel.
type Config struct {
	// Queue configures the six queues of each shard; its Slots is per
	// ring.
	Queue nkqueue.Config
	// HugePages is the page count of the data region (default 40, the
	// prototype's allocation). It is capacity, not cost: the region backs
	// a 64 KiB unit, carved from its host's page pool (the testbed's,
	// when its hosts share one), only when a chunk on it is first
	// touched (DESIGN.md §17).
	HugePages int
	// Shards is the number of ring-set shards (default 1, the single-
	// queue channel of the conference paper). The huge-page region and
	// the slot reserve are shared across shards; ring sets are not.
	Shards int
}

func (c *Config) fillDefaults() {
	if c.HugePages <= 0 {
		c.HugePages = shm.DefaultPageCount
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
}

// QueueKind selects an NSM-side output queue for emission.
type QueueKind int

// Queue kinds.
const (
	// Completion answers a specific job (correlated by Seq).
	Completion QueueKind = iota
	// Receive carries asynchronous events.
	Receive
)

// Rings is one shard's six queues.
type Rings struct {
	// VM-side queues: the VM produces jobs and consumes completions
	// and receive events.
	VMJob, VMCompletion, VMReceive *nkqueue.Queue
	// NSM-side queues: the NSM consumes jobs and produces completions
	// and receive events.
	NSMJob, NSMCompletion, NSMReceive *nkqueue.Queue
}

// Pair is the full VM↔NSM channel.
type Pair struct {
	// Shard 0's queues, inlined for single-shard callers (tests and
	// benchmarks build bare Pairs with just these; EnsureShards wraps
	// them into Shards[0]).
	VMJob, VMCompletion, VMReceive    *nkqueue.Queue
	NSMJob, NSMCompletion, NSMReceive *nkqueue.Queue
	// Shards holds every ring set; Shards[0] aliases the fields above.
	Shards []Rings
	// Pages is the shared data region, unique per pair (§3.1
	// isolation) and shared by all shards through one free list, so
	// the pair backs only the units its peak outstanding chunks need.
	Pages *shm.HugePages
	// Reserve backs every ring of every shard: one queue depth of
	// segments at set-up, grown by another only when all are in use.
	// Nil on a hand-built pair, whose queues have private reserves.
	Reserve *shm.SlotReserve

	// Kicks are the notification hooks wired by the owners, the
	// channel's only wake path. Each models a batched interrupt in the
	// paper's design (§3.2): a producer pushes a whole batch to one
	// shard's ring, then kicks that shard once, and the consumer drains
	// the ring in spans rather than taking one interrupt per nqe.
	KickEngineVM  func(shard int) // GuestLib → CoreEngine: VM job queue has work
	KickEngineNSM func(shard int) // ServiceLib → CoreEngine: NSM completion/receive queues have work
	KickNSM       func(shard int) // CoreEngine → ServiceLib: NSM job queue has work
	KickVM        func(shard int) // CoreEngine → GuestLib: VM completion/receive queues have work
}

// NewPair builds the queues over one slot reserve of a queue depth and
// reserves the data region, whose units are carved from pool's pages; a
// nil pool means a private one.
func NewPair(cfg Config, pool *shm.Pool) (*Pair, error) {
	cfg.fillDefaults()
	pages, err := shm.NewHugePagesIn(pool, cfg.HugePages, chunkSize)
	if err != nil {
		return nil, err
	}
	res, err := shm.NewSlotReserve(nkqueue.DefaultSlots, nqe.Size)
	if err != nil {
		return nil, err
	}
	p := &Pair{Pages: pages, Reserve: res, Shards: make([]Rings, cfg.Shards)}
	for i := range p.Shards {
		vm, err := nkqueue.NewSet(cfg.Queue, res)
		if err != nil {
			return nil, err
		}
		nsm, err := nkqueue.NewSet(cfg.Queue, res)
		if err != nil {
			return nil, err
		}
		p.Shards[i] = Rings{
			VMJob: vm.Job, VMCompletion: vm.Completion, VMReceive: vm.Receive,
			NSMJob: nsm.Job, NSMCompletion: nsm.Completion, NSMReceive: nsm.Receive,
		}
	}
	p.VMJob, p.VMCompletion, p.VMReceive = p.Shards[0].VMJob, p.Shards[0].VMCompletion, p.Shards[0].VMReceive
	p.NSMJob, p.NSMCompletion, p.NSMReceive = p.Shards[0].NSMJob, p.Shards[0].NSMCompletion, p.Shards[0].NSMReceive
	return p, nil
}

// EnsureShards makes Shards usable on hand-built pairs that only
// filled the inline shard-0 fields. Owners (engine, guestlib,
// servicelib) call it on attach.
func (p *Pair) EnsureShards() {
	if len(p.Shards) == 0 {
		p.Shards = []Rings{{
			VMJob: p.VMJob, VMCompletion: p.VMCompletion, VMReceive: p.VMReceive,
			NSMJob: p.NSMJob, NSMCompletion: p.NSMCompletion, NSMReceive: p.NSMReceive,
		}}
	}
}

// NumShards returns the channel's shard count.
func (p *Pair) NumShards() int {
	if len(p.Shards) == 0 {
		return 1
	}
	return len(p.Shards)
}

// ShardIndex folds an out-of-range shard index to shard 0, so a bad
// index degrades to the single-queue channel instead of panicking the
// loop. Call it after EnsureShards.
func (p *Pair) ShardIndex(i int) int {
	if i < 0 || i >= len(p.Shards) {
		return 0
	}
	return i
}

// ChunkSize returns the data-chunk granularity.
func (p *Pair) ChunkSize() int { return p.Pages.ChunkSize() }
