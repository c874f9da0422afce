// Package nkqueue builds NetKernel's typed queues on top of the shm ring
// substrate.
//
// Each side of a VM↔NSM pair owns three queues (§3.2, Figure 3): a job
// queue (requests), a completion queue (responses correlated by sequence
// number), and a receive queue (asynchronous events such as new data and
// new connections). The paper further suggests implementing them "as
// priority queues to handle connection events and data events separately
// to avoid the head of line blocking"; a Queue built with
// Config.Priority realizes that with a second ring for connection
// events, drained before the data-event ring.
//
// A queue's depth is capacity, not cost: its rings hold 1 KiB segments
// of a slot reserve only while their occupancy needs them, and every
// queue of a VM↔NSM pair, on every shard, draws from the pair's one
// reserve (nkchan.NewPair).
//
// Queue is one concrete type, so a producer's element literal stays on
// its stack: nothing the conveyor pushes escapes through an interface.
package nkqueue

import (
	"fmt"
	"sync/atomic"

	"netkernel/internal/nqe"
	"netkernel/internal/shm"
)

// DefaultSlots is the per-ring slot count used when a Config leaves it 0.
const DefaultSlots = 1024

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

// Queue is a queue of nqes: one ring, or two when built with
// Config.Priority. A priority queue routes connection events (socket,
// connect, accept, close, established, …) to its high-priority ring and
// data events (send, recv, new-data, credits) to the other, and every
// pop drains high before low, so a burst of bulk data cannot delay
// connection setup. Within a class arrival order is kept.
type Queue struct {
	ring *shm.Ring // data events; a plain queue's only ring
	hi   *shm.Ring // connection events; nil for a plain queue
	// spanHi remembers that the last FrontSpan came from hi, so
	// ReleaseSpan frees the right slots. Consumer-side state only.
	spanHi bool
	stall  func() bool
	// pushed and popped are maintained at this API layer, independently
	// of the rings' head/tail cursors, so the telemetry conservation
	// invariant Pushed() == Popped() + Len() cross-checks the queue
	// accounting against the ring state instead of restating it.
	pushed atomic.Uint64
	popped atomic.Uint64
	// refused counts pushes that placed less than they were offered. It
	// is bumped only on that path and is no telemetry counter: tests read
	// it to prove a ring's depth holds its traffic.
	refused atomic.Uint64
}

// NewQueue builds a queue: a plain one, or a priority one when
// cfg.Priority is set (each ring gets cfg.Slots slots, over a reserve of
// its own).
func NewQueue(cfg Config) (*Queue, error) { return newQueue(cfg, nil) }

// newQueue is NewQueue with rings drawing their slots from res; nil
// means a private reserve per ring.
func newQueue(cfg Config, res *shm.SlotReserve) (*Queue, error) {
	ring, err := shm.NewRingIn(res, cfg.slots(), nqe.Size)
	if err != nil {
		return nil, fmt.Errorf("nkqueue: %w", err)
	}
	q := &Queue{ring: ring}
	if cfg.Priority {
		q.hi, _ = shm.NewRingIn(res, cfg.slots(), nqe.Size) // same shape as ring
	}
	return q, nil
}

// SetPushStall installs a fault hook consulted once at the top of every
// Push/PushBatch/PushSpan call: when it returns true the call fails as
// if the queue were full, exercising the producers' backpressure paths.
// nil clears the hook.
func (q *Queue) SetPushStall(stall func() bool) { q.stall = stall }

func (q *Queue) stalled() bool { return q.stall != nil && q.stall() }

// route returns the ring an element of class op rides.
func (q *Queue) route(op nqe.Op) *shm.Ring {
	if q.hi != nil && op.IsConnEvent() {
		return q.hi
	}
	return q.ring
}

// Push enqueues an element, encoding it directly into the ring slot (no
// intermediate buffer: the element is marshalled once, into shared
// memory). It reports false when the element's ring is full.
func (q *Queue) Push(e *nqe.Element) bool {
	if q.stalled() {
		q.refused.Add(1)
		return false
	}
	r := q.route(e.Op)
	slot, ok := r.Reserve()
	if !ok {
		q.refused.Add(1)
		return false
	}
	e.Encode(slot)
	r.Commit()
	q.pushed.Add(1)
	return true
}

// Pop dequeues into e, connection events first, reporting false when
// the queue is empty.
func (q *Queue) Pop(e *nqe.Element) bool {
	if !popOne(q.hi, e) && !popOne(q.ring, e) {
		return false
	}
	q.popped.Add(1)
	return true
}

func popOne(r *shm.Ring, e *nqe.Element) bool {
	if r == nil {
		return false
	}
	slot, ok := r.Front()
	if !ok {
		return false
	}
	e.Decode(slot)
	r.Release()
	return true
}

// PushBatch enqueues a prefix of es, stopping at the first element that
// does not fit, and returns how many were enqueued. Each run of
// elements bound for one ring reserves each contiguous span of free
// slots once, fills it by direct encoding, and publishes it with one
// atomic add.
func (q *Queue) PushBatch(es []nqe.Element) int {
	if q.stalled() {
		return q.placed(0, len(es))
	}
	pushed := 0
	for pushed < len(es) {
		r, end := q.ring, len(es)
		if q.hi != nil {
			r = q.route(es[pushed].Op)
			for end = pushed + 1; end < len(es) && q.route(es[end].Op) == r; end++ {
			}
		}
		span, n := r.ReserveN(end - pushed)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			es[pushed+i].Encode(span[i*nqe.Size:])
		}
		r.CommitN(n)
		pushed += n
	}
	return q.placed(pushed, len(es))
}

// placed accounts for a batch push that enqueued n of offered elements
// and returns n.
func (q *Queue) placed(n, offered int) int {
	count(&q.pushed, n)
	if n < offered {
		q.refused.Add(1)
	}
	return n
}

// count adds n to a push or pop counter, skipping the atomic add when
// nothing moved (pumps poll their rings until one comes back empty).
func count(c *atomic.Uint64, n int) {
	if n > 0 {
		c.Add(uint64(n))
	}
}

// PopBatch drains up to len(dst) elements, connection events first,
// returning the count. Batched draining is how GuestLib, ServiceLib,
// and CoreEngine amortize wakeups (§3.2 "batched interrupts"): each
// contiguous span is decoded in place and released with one atomic add.
func (q *Queue) PopBatch(dst []nqe.Element) int {
	n := 0
	if q.hi != nil {
		n = popBatch(q.hi, dst)
	}
	n += popBatch(q.ring, dst[n:])
	count(&q.popped, n)
	return n
}

func popBatch(r *shm.Ring, dst []nqe.Element) int {
	n := 0
	for n < len(dst) {
		span, got := r.FrontN(len(dst) - n)
		if got == 0 {
			break
		}
		for i := 0; i < got; i++ {
			dst[n+i].Decode(span[i*nqe.Size:])
		}
		r.ReleaseN(got)
		n += got
	}
	return n
}

// FrontSpan returns up to max oldest queued elements as one raw
// contiguous byte span (n encoded slots of nqe.Size bytes each) for
// in-place reading or field patching; the slots stay queued until
// ReleaseSpan. The span comes from the connection-event ring while it
// has work. n is 0 when empty. Only the consumer may call it, and each
// FrontSpan must be resolved by ReleaseSpan before the next.
func (q *Queue) FrontSpan(max int) ([]byte, int) {
	if q.hi != nil {
		if span, n := q.hi.FrontN(max); n > 0 {
			q.spanHi = true
			return span, n
		}
	}
	q.spanHi = false
	return q.ring.FrontN(max)
}

// ReleaseSpan frees the first n slots of the last FrontSpan.
func (q *Queue) ReleaseSpan(n int) {
	r := q.ring
	if q.spanHi {
		r = q.hi
	}
	r.ReleaseN(n)
	count(&q.popped, n)
}

// PushSpan enqueues raw already-encoded slots (len(span) must be a
// multiple of nqe.Size), stopping when full, and returns how many slots
// were enqueued. Whole runs transfer with a single copy per contiguous
// span of free slots; a priority queue routes by the op byte of each
// record, without any decode/encode.
func (q *Queue) PushSpan(span []byte) int {
	total := len(span) / nqe.Size
	if q.stalled() {
		return q.placed(0, total)
	}
	pushed := 0
	for pushed < total {
		r, end := q.ring, total
		if q.hi != nil {
			r = q.route(nqe.Slot(span[pushed*nqe.Size:]).Op())
			for end = pushed + 1; end < total && q.route(nqe.Slot(span[end*nqe.Size:]).Op()) == r; end++ {
			}
		}
		d, n := r.ReserveN(end - pushed)
		if n == 0 {
			break
		}
		copy(d, span[pushed*nqe.Size:(pushed+n)*nqe.Size])
		r.CommitN(n)
		pushed += n
	}
	return q.placed(pushed, total)
}

// Len returns the number of queued elements.
func (q *Queue) Len() int {
	if q.hi != nil {
		return q.hi.Len() + q.ring.Len()
	}
	return q.ring.Len()
}

// Cap returns the slot count of each of the queue's rings.
func (q *Queue) Cap() int { return q.ring.Cap() }

// Refused returns how many pushes placed less than they were offered:
// a full ring or an injected stall.
func (q *Queue) Refused() uint64 { return q.refused.Load() }

// Pushed returns the total elements ever enqueued.
func (q *Queue) Pushed() uint64 { return q.pushed.Load() }

// Popped returns the total elements ever dequeued.
func (q *Queue) Popped() uint64 { return q.popped.Load() }

// Move transfers one raw element from src to dst without decoding: the
// CoreEngine's 64-byte slot-to-slot copy (§4.2 measures it at ~12 ns per
// event). It reports false when src is empty or dst is full.
func Move(dst, src *Queue) bool { return MoveBatch(dst, src, 1) == 1 }

// MoveBatch transfers up to max raw elements from src to dst without
// decoding: the batched CoreEngine fast path. Each contiguous span
// (split only at a ring segment's end) moves with a single copy, one
// publishing atomic add, and one releasing atomic add — per-batch
// rather than per-event operation, which is what lets a shared stack
// serve many tenants at line rate. Returns the number moved.
func MoveBatch(dst, src *Queue, max int) int {
	moved := 0
	for moved < max {
		s, ns := src.FrontSpan(max - moved)
		if ns == 0 {
			break
		}
		nd := dst.PushSpan(s[:ns*nqe.Size])
		if nd == 0 {
			break
		}
		src.ReleaseSpan(nd)
		moved += nd
	}
	return moved
}

// A Set is one side's three queues (§3.2, Figure 3).
type Set struct {
	// Job carries requests from this side to its peer.
	Job *Queue
	// Completion carries responses to jobs, correlated by Seq.
	Completion *Queue
	// Receive carries asynchronous events (new data, new connections).
	Receive *Queue
}

// NewSet builds a queue set per cfg whose rings draw their slots from
// res, a reserve of nqe.Size slots; nil means a private reserve per
// ring.
func NewSet(cfg Config, res *shm.SlotReserve) (*Set, error) {
	var s Set
	for _, q := range []**Queue{&s.Job, &s.Completion, &s.Receive} {
		var err error
		if *q, err = newQueue(cfg, res); err != nil {
			return nil, err
		}
	}
	return &s, nil
}
