package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of log2 buckets: bucket b holds values v
// with bits.Len64(v) == b, i.e. the range [2^(b-1), 2^b - 1] (bucket 0
// holds exactly 0). 64 buckets cover the full uint64 range, so
// nanosecond latencies up to centuries land without clamping.
const histBuckets = 65

// A Histogram is a lock-free log2-bucketed histogram. Observe is a
// handful of atomic adds; Snapshot derives p50/p99 from the bucket
// counts. The zero value is ready to use.
type Histogram struct {
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// A HistogramSnapshot is a consistent read of a histogram. Count is
// derived from the bucket counts read during the snapshot, so
// Count == Σ Buckets always holds even while writers race the reader
// (the conservation invariant the -race suite asserts).
type HistogramSnapshot struct {
	Count   uint64
	Sum     uint64
	Max     uint64
	P50     uint64
	P99     uint64
	Buckets [histBuckets]uint64
}

// Snapshot reads the histogram. Percentiles are upper bounds of the
// log2 bucket containing the quantile, so they are exact to within 2×.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for b := range h.buckets {
		n := h.buckets[b].Load()
		s.Buckets[b] = n
		s.Count += n
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	s.P50 = s.quantile(0.50)
	s.P99 = s.quantile(0.99)
	return s
}

// quantile returns the upper bound of the bucket containing quantile q.
func (s HistogramSnapshot) quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for b, n := range s.Buckets {
		seen += n
		if n > 0 && seen > rank {
			if b == 0 {
				return 0
			}
			return 1<<uint(b) - 1
		}
	}
	return s.Max
}
