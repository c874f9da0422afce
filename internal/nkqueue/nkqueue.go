// Package nkqueue builds NetKernel's typed queues on top of the shm ring
// substrate.
//
// Each side of a VM↔NSM pair owns three queues (§3.2, Figure 3): a job
// queue (requests), a completion queue (responses correlated by sequence
// number), and a receive queue (asynchronous events such as new data and
// new connections). The paper further suggests implementing them "as
// priority queues to handle connection events and data events separately
// to avoid the head of line blocking"; PriorityQueue realizes that with a
// high-priority ring for connection events and a low-priority ring for
// data events.
package nkqueue

import (
	"fmt"
	"sync/atomic"

	"netkernel/internal/nqe"
	"netkernel/internal/shm"
)

// DefaultSlots is the per-ring slot count used when a Config leaves it 0.
const DefaultSlots = 1024

// Q is the queue interface shared by plain and priority queues.
type Q interface {
	// Push enqueues an element, reporting false when the queue is full.
	Push(e *nqe.Element) bool
	// PushBatch enqueues a prefix of es, stopping at the first element
	// that does not fit, and returns how many were enqueued.
	PushBatch(es []nqe.Element) int
	// Pop dequeues into e, reporting false when the queue is empty.
	Pop(e *nqe.Element) bool
	// PopBatch drains up to len(dst) elements, returning the count.
	PopBatch(dst []nqe.Element) int
	// FrontSpan returns up to max oldest queued elements as one raw
	// contiguous byte span (n encoded slots of nqe.Size bytes each) for
	// in-place reading or field patching; the slots stay queued until
	// ReleaseSpan. n is 0 when empty. Only the consumer may call it,
	// and each FrontSpan must be resolved by ReleaseSpan before the
	// next (a priority queue remembers which internal ring the span
	// came from).
	FrontSpan(max int) (span []byte, n int)
	// ReleaseSpan frees the first n slots of the last FrontSpan.
	ReleaseSpan(n int)
	// PushSpan enqueues raw already-encoded slots (len(span) must be a
	// multiple of nqe.Size), stopping when full, and returns how many
	// slots were enqueued.
	PushSpan(span []byte) int
	// Len returns the number of queued elements.
	Len() int
	// Pushed returns the total elements ever enqueued. The counter is
	// maintained at this API layer, independently of the ring's
	// head/tail cursors, so the telemetry conservation invariant
	// Pushed() == Popped() + Len() cross-checks the queue accounting
	// against the ring state instead of restating it.
	Pushed() uint64
	// Popped returns the total elements ever dequeued.
	Popped() uint64
	// SetPushStall installs a fault hook consulted once at the top of
	// every Push/PushBatch/PushSpan call: when it returns true the call
	// fails as if the queue were full, exercising the producers'
	// backpressure paths. nil clears the hook.
	SetPushStall(stall func() bool)
}

// Config shapes a queue set.
type Config struct {
	// Slots per ring; 0 means DefaultSlots. Must be a power of two.
	Slots int
	// Priority splits each queue into connection-event and data-event
	// rings (§3.2 head-of-line-blocking avoidance).
	Priority bool
}

func (c Config) slots() int {
	if c.Slots == 0 {
		return DefaultSlots
	}
	return c.Slots
}

// Queue is a plain single-ring queue of nqes.
type Queue struct {
	ring   *shm.Ring
	stall  func() bool
	pushed atomic.Uint64
	popped atomic.Uint64
}

// SetPushStall implements Q.
func (q *Queue) SetPushStall(stall func() bool) { q.stall = stall }

func (q *Queue) stalled() bool { return q.stall != nil && q.stall() }

// NewQueue builds a plain queue.
func NewQueue(cfg Config) (*Queue, error) {
	ring, err := shm.NewRing(cfg.slots(), nqe.Size)
	if err != nil {
		return nil, fmt.Errorf("nkqueue: %w", err)
	}
	return &Queue{ring: ring}, nil
}

// Push implements Q, encoding e directly into the ring slot (no
// intermediate buffer: the element is marshalled once, into shared
// memory).
func (q *Queue) Push(e *nqe.Element) bool {
	if q.stalled() {
		return false
	}
	slot, ok := q.ring.Reserve()
	if !ok {
		return false
	}
	e.Encode(slot)
	q.ring.Commit()
	q.pushed.Add(1)
	return true
}

// Pop implements Q.
func (q *Queue) Pop(e *nqe.Element) bool {
	slot, ok := q.ring.Front()
	if !ok {
		return false
	}
	e.Decode(slot)
	q.ring.Release()
	q.popped.Add(1)
	return true
}

// PushBatch implements Q: each span of contiguous free slots is
// reserved once, filled by direct encoding, and published with one
// atomic add.
func (q *Queue) PushBatch(es []nqe.Element) int {
	if q.stalled() {
		return 0
	}
	pushed := 0
	for pushed < len(es) {
		span, n := q.ring.ReserveN(len(es) - pushed)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			es[pushed+i].Encode(span[i*nqe.Size:])
		}
		q.ring.CommitN(n)
		pushed += n
	}
	if pushed > 0 {
		q.pushed.Add(uint64(pushed))
	}
	return pushed
}

// PopBatch drains up to len(dst) elements, returning the count. Batched
// draining is how GuestLib, ServiceLib, and CoreEngine amortize wakeups
// (§3.2 "batched interrupts"): each contiguous span is decoded in place
// and released with one atomic add.
func (q *Queue) PopBatch(dst []nqe.Element) int {
	n := 0
	for n < len(dst) {
		span, got := q.ring.FrontN(len(dst) - n)
		if got == 0 {
			break
		}
		for i := 0; i < got; i++ {
			dst[n+i].Decode(span[i*nqe.Size:])
		}
		q.ring.ReleaseN(got)
		n += got
	}
	if n > 0 {
		q.popped.Add(uint64(n))
	}
	return n
}

// FrontSpan implements Q.
func (q *Queue) FrontSpan(max int) ([]byte, int) { return q.ring.FrontN(max) }

// ReleaseSpan implements Q.
func (q *Queue) ReleaseSpan(n int) {
	q.ring.ReleaseN(n)
	q.popped.Add(uint64(n))
}

// PushSpan implements Q: whole spans of raw slots transfer with a
// single copy per contiguous run.
func (q *Queue) PushSpan(span []byte) int {
	if q.stalled() {
		return 0
	}
	total := len(span) / nqe.Size
	pushed := 0
	for pushed < total {
		d, n := q.ring.ReserveN(total - pushed)
		if n == 0 {
			break
		}
		copy(d, span[pushed*nqe.Size:(pushed+n)*nqe.Size])
		q.ring.CommitN(n)
		pushed += n
	}
	if pushed > 0 {
		q.pushed.Add(uint64(pushed))
	}
	return pushed
}

// Len implements Q.
func (q *Queue) Len() int { return q.ring.Len() }

// Pushed implements Q.
func (q *Queue) Pushed() uint64 { return q.pushed.Load() }

// Popped implements Q.
func (q *Queue) Popped() uint64 { return q.popped.Load() }

// Move transfers one raw element from src to dst without decoding: the
// CoreEngine's 64-byte slot-to-slot copy (§4.2 measures it at ~12 ns per
// event). It reports false when src is empty or dst is full.
func Move(dst, src *Queue) bool { return MoveBatch(dst, src, 1) == 1 }

// MoveBatch transfers up to max raw elements from src to dst without
// decoding: the batched CoreEngine fast path. Each contiguous span
// (split only at ring wraparound) moves with a single copy, one
// publishing atomic add, and one releasing atomic add — per-batch
// rather than per-event operation, which is what lets a shared stack
// serve many tenants at line rate. Returns the number moved.
func MoveBatch(dst, src *Queue, max int) int {
	moved := 0
	for moved < max {
		s, ns := src.ring.FrontN(max - moved)
		if ns == 0 {
			break
		}
		d, nd := dst.ring.ReserveN(ns)
		if nd == 0 {
			break
		}
		copy(d, s[:nd*nqe.Size])
		dst.ring.CommitN(nd)
		src.ring.ReleaseN(nd)
		moved += nd
	}
	if moved > 0 {
		dst.pushed.Add(uint64(moved))
		src.popped.Add(uint64(moved))
	}
	return moved
}

// PriorityQueue pairs a high-priority queue (connection events: socket,
// connect, accept, close, established, …) with a low-priority queue (data
// events: send, recv, new-data, credits). Pop drains high before low, so
// a burst of bulk data cannot delay connection setup.
type PriorityQueue struct {
	hi, lo *Queue
	stall  func() bool
	// spanFrom remembers which queue the last FrontSpan came from, so
	// ReleaseSpan frees the right slots. Consumer-side state only.
	spanFrom *Queue
}

// SetPushStall implements Q. The hook gates pushes through the priority
// queue itself; the internal queues are not separately stalled.
func (p *PriorityQueue) SetPushStall(stall func() bool) { p.stall = stall }

func (p *PriorityQueue) stalled() bool { return p.stall != nil && p.stall() }

// NewPriorityQueue builds the pair; each queue gets cfg.Slots slots.
func NewPriorityQueue(cfg Config) (*PriorityQueue, error) {
	hi, err := NewQueue(cfg)
	if err != nil {
		return nil, err
	}
	lo, err := NewQueue(cfg)
	if err != nil {
		return nil, err
	}
	return &PriorityQueue{hi: hi, lo: lo}, nil
}

// class routes by event class.
func (p *PriorityQueue) class(op nqe.Op) *Queue {
	if op.IsConnEvent() {
		return p.hi
	}
	return p.lo
}

// Push implements Q.
func (p *PriorityQueue) Push(e *nqe.Element) bool {
	return !p.stalled() && p.class(e.Op).Push(e)
}

// PushBatch implements Q, routing each element by event class. It stops
// at the first element that does not fit so arrival order within a
// class is never reordered.
func (p *PriorityQueue) PushBatch(es []nqe.Element) int {
	if p.stalled() {
		return 0
	}
	for i := range es {
		if !p.class(es[i].Op).Push(&es[i]) {
			return i
		}
	}
	return len(es)
}

// Pop drains connection events before data events.
func (p *PriorityQueue) Pop(e *nqe.Element) bool {
	return p.hi.Pop(e) || p.lo.Pop(e)
}

// PopBatch implements Q, draining connection events before data events.
func (p *PriorityQueue) PopBatch(dst []nqe.Element) int {
	n := p.hi.PopBatch(dst)
	return n + p.lo.PopBatch(dst[n:])
}

// FrontSpan implements Q: the span comes from the high-priority queue
// while it has work, then from the low-priority queue.
func (p *PriorityQueue) FrontSpan(max int) ([]byte, int) {
	if span, n := p.hi.FrontSpan(max); n > 0 {
		p.spanFrom = p.hi
		return span, n
	}
	p.spanFrom = p.lo
	return p.lo.FrontSpan(max)
}

// ReleaseSpan implements Q.
func (p *PriorityQueue) ReleaseSpan(n int) {
	if p.spanFrom != nil {
		p.spanFrom.ReleaseSpan(n)
	}
}

// PushSpan implements Q. Raw slots still route per element (the class
// lives in the op byte), but without any decode/encode: each 64-byte
// record copies straight into its queue.
func (p *PriorityQueue) PushSpan(span []byte) int {
	if p.stalled() {
		return 0
	}
	total := len(span) / nqe.Size
	for i := 0; i < total; i++ {
		rec := span[i*nqe.Size : (i+1)*nqe.Size]
		if p.class(nqe.Slot(rec).Op()).PushSpan(rec) == 0 {
			return i
		}
	}
	return total
}

// Len implements Q.
func (p *PriorityQueue) Len() int { return p.hi.Len() + p.lo.Len() }

// Pushed implements Q (sum over both queues).
func (p *PriorityQueue) Pushed() uint64 { return p.hi.Pushed() + p.lo.Pushed() }

// Popped implements Q (sum over both queues).
func (p *PriorityQueue) Popped() uint64 { return p.hi.Popped() + p.lo.Popped() }

// A Set is one side's three queues (§3.2, Figure 3).
type Set struct {
	// Job carries requests from this side to its peer.
	Job Q
	// Completion carries responses to jobs, correlated by Seq.
	Completion Q
	// Receive carries asynchronous events (new data, new connections).
	Receive Q
}

// NewSet builds a queue set per cfg.
func NewSet(cfg Config) (*Set, error) {
	mk := func() (Q, error) {
		if cfg.Priority {
			return NewPriorityQueue(cfg)
		}
		return NewQueue(cfg)
	}
	job, err := mk()
	if err != nil {
		return nil, err
	}
	comp, err := mk()
	if err != nil {
		return nil, err
	}
	recv, err := mk()
	if err != nil {
		return nil, err
	}
	return &Set{Job: job, Completion: comp, Receive: recv}, nil
}

// NewSets builds n independent queue sets per cfg — one per datapath
// shard. Each shard of a multi-queue channel owns a full set, so flows
// pinned to different shards never contend on a ring.
func NewSets(cfg Config, n int) ([]*Set, error) {
	if n < 1 {
		n = 1
	}
	sets := make([]*Set, n)
	for i := range sets {
		s, err := NewSet(cfg)
		if err != nil {
			return nil, err
		}
		sets[i] = s
	}
	return sets, nil
}
