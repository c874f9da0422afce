// Package sched provides the resource-allocation machinery the paper's
// §5 calls for: "The resource allocation and scheduling of the NSMs …
// needs to be strategically managed and optimized when we use a NSM to
// serve multiple VMs concurrently while providing QoS guarantees."
//
// Its one primitive is TokenBucket: per-tenant rate enforcement
// (throughput SLAs, §2.1), which ServiceLib consults on each tenant's
// send path. Scale-out replicas (§2.1) are placed round-robin by
// GuestLib.
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
