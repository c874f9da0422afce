// Package sched provides the resource-allocation machinery the paper's
// §5 calls for: "The resource allocation and scheduling of the NSMs …
// needs to be strategically managed and optimized when we use a NSM to
// serve multiple VMs concurrently while providing QoS guarantees."
//
// It offers two primitives:
//
//   - TokenBucket: per-tenant rate enforcement (throughput SLAs, §2.1).
//   - DRR: deficit-round-robin weighted sharing of one NSM's capacity
//     across multiplexed tenant VMs.
//
// Scale-out replicas (§2.1) are placed round-robin by GuestLib.
package sched

import (
	"time"

	"netkernel/internal/sim"
)

// A Shaper grants or defers byte transmissions. ServiceLib consults one
// per tenant on its send path.
type Shaper interface {
	// Take requests n bytes. When denied, retry suggests how long to
	// wait before asking again.
	Take(n int) (ok bool, retry time.Duration)
	// Refund returns bytes that were granted but not actually sent.
	Refund(n int)
}

// TokenBucket enforces an average rate with a burst allowance.
type TokenBucket struct {
	clock  sim.Clock
	rate   float64 // bytes per second
	burst  float64 // bucket depth, bytes
	tokens float64
	last   sim.Time
}

// NewTokenBucket builds a bucket; burst <= 0 defaults to 1/10 s of
// rate (min 64 KB).
func NewTokenBucket(clock sim.Clock, bytesPerSec float64, burst int) *TokenBucket {
	if bytesPerSec <= 0 {
		panic("sched: non-positive rate")
	}
	b := float64(burst)
	if burst <= 0 {
		b = bytesPerSec / 10
		if b < 64<<10 {
			b = 64 << 10
		}
	}
	return &TokenBucket{clock: clock, rate: bytesPerSec, burst: b, tokens: b, last: clock.Now()}
}

func (tb *TokenBucket) refill() {
	now := tb.clock.Now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	tb.last = now
}

// Take implements Shaper.
func (tb *TokenBucket) Take(n int) (bool, time.Duration) {
	tb.refill()
	need := float64(n)
	if tb.tokens >= need {
		tb.tokens -= need
		return true, 0
	}
	wait := time.Duration((need - tb.tokens) / tb.rate * float64(time.Second))
	if wait < time.Microsecond {
		wait = time.Microsecond
	}
	return false, wait
}

// Refund implements Shaper.
func (tb *TokenBucket) Refund(n int) {
	tb.tokens += float64(n)
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
}

// DRR is a deficit-round-robin scheduler (Shreedhar & Varghese): each
// flow receives service proportional to its weight, in byte units,
// regardless of item sizes. Next serves one item per call.
type DRR struct {
	quantumUnit int
	flows       []*Flow
	cursor      int
	current     *Flow // flow being served within its current turn
}

// Flow is one DRR queue.
type Flow struct {
	weight  int
	quantum int
	deficit int
	items   []drrItem
	served  uint64 // bytes served, for tests and monitoring
}

type drrItem struct {
	payload any
	size    int
}

// NewDRR builds an empty scheduler. quantumUnit is the byte quantum per
// weight point per round (default 1500, one MTU).
func NewDRR(quantumUnit int) *DRR {
	if quantumUnit <= 0 {
		quantumUnit = 1500
	}
	return &DRR{quantumUnit: quantumUnit, cursor: -1}
}

// AddFlow registers a flow with the given weight (minimum 1).
func (d *DRR) AddFlow(weight int) *Flow {
	if weight < 1 {
		weight = 1
	}
	f := &Flow{weight: weight, quantum: weight * d.quantumUnit}
	d.flows = append(d.flows, f)
	return f
}

// Enqueue adds an item of the given size to the flow.
func (f *Flow) Enqueue(payload any, size int) {
	f.items = append(f.items, drrItem{payload: payload, size: size})
}

// Len returns the flow's queued item count.
func (f *Flow) Len() int { return len(f.items) }

// Served returns the cumulative bytes this flow has been served.
func (f *Flow) Served() uint64 { return f.served }

// Next returns the next item under weighted fairness, or false when
// every flow is empty.
func (d *DRR) Next() (any, bool) {
	queued := false
	for _, f := range d.flows {
		if len(f.items) > 0 {
			queued = true
			break
		}
	}
	if !queued {
		return nil, false
	}
	for {
		if f := d.current; f != nil {
			if len(f.items) > 0 && f.items[0].size <= f.deficit {
				it := f.items[0]
				f.items = f.items[1:]
				f.deficit -= it.size
				f.served += uint64(it.size)
				if len(f.items) == 0 {
					f.deficit = 0
					d.current = nil
				}
				return it.payload, true
			}
			d.current = nil // turn exhausted
		}
		d.cursor = (d.cursor + 1) % len(d.flows)
		f := d.flows[d.cursor]
		if len(f.items) == 0 {
			f.deficit = 0
			continue
		}
		f.deficit += f.quantum
		d.current = f
	}
}
