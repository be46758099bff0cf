package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: fixed log-2 boundaries over nanoseconds,
// shared by every latency histogram in the module so percentiles are
// comparable across metrics and across runs. Bucket i (i <
// numFiniteBounds) holds observations with value ≤ histBaseNS << i; the
// last bucket is the +Inf overflow. With histBaseNS = 4096ns and 31
// finite bounds the range spans ~4.1µs to ~73min — microsecond cache
// hits and multi-minute pathological solves land in distinct buckets
// with everything between resolved to a factor of 2.
//
// The boundaries are compile-time fixed on purpose: configurable buckets
// would make exposition bytes and recorded artifacts (BENCH_serve.json)
// depend on deployment flags, breaking the determinism contract that
// makes them diffable.
const (
	histBaseNS      = 4096 // 2^12 ns ≈ 4.1µs, the first bucket's upper bound
	histBaseBits    = 12
	numFiniteBounds = 31
	numBuckets      = numFiniteBounds + 1 // + the +Inf overflow bucket
)

// BucketBoundNS returns finite bucket i's inclusive upper bound in
// nanoseconds. i must be < numFiniteBounds.
func BucketBoundNS(i int) int64 { return histBaseNS << i }

// NumBuckets is the bucket count including the +Inf overflow bucket.
const NumBuckets = numBuckets

// Histogram is a fixed-boundary log-bucketed latency histogram. The zero
// value is ready to use; all methods are safe for concurrent use and the
// record path (Observe) is lock-free and allocation-free. A nil
// *Histogram is valid: every method no-ops or returns zero, so disabled
// observability costs one nil check per call site.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	sumNS   atomic.Int64
}

// bucketIndex maps a nanosecond value to its bucket: the smallest i with
// ns ≤ histBaseNS<<i, clamped into the +Inf bucket past the last finite
// bound. Non-positive values land in bucket 0.
func bucketIndex(ns int64) int {
	if ns <= histBaseNS {
		return 0
	}
	// For ns in (histBase<<(i-1), histBase<<i], (ns-1)>>histBaseBits has
	// bit length i — one shift and a Len64 instead of a bound scan.
	i := bits.Len64(uint64(ns-1) >> histBaseBits)
	if i >= numFiniteBounds {
		return numBuckets - 1
	}
	return i
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNS(d.Nanoseconds()) }

// ObserveNS records one duration in nanoseconds. Lock-free: one bucket
// add and one sum add. There is no separate count: the count is the sum
// of the buckets, so no reader can see a count that disagrees with them.
// The two adds are not mutually atomic — a concurrent Snapshot may see a
// bucket whose value is not yet in the sum — but at quiescence the sum
// is exact.
func (h *Histogram) ObserveNS(ns int64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.sumNS.Add(ns)
}

// Count returns the total observations, the sum of the bucket counts
// (0 on nil).
func (h *Histogram) Count() uint64 { return h.Snapshot().Count }

// SumNS returns the exact sum of observed nanoseconds (0 on nil).
func (h *Histogram) SumNS() int64 {
	if h == nil {
		return 0
	}
	return h.sumNS.Load()
}

// MeanNS returns the exact mean observation in nanoseconds, 0 when
// empty. This is the mean the admission controller's Retry-After
// estimate reuses — one aggregate, one source of truth.
func (h *Histogram) MeanNS() int64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.SumNS() / int64(n)
}

// HistogramSnapshot is a point-in-time copy of a histogram's state.
type HistogramSnapshot struct {
	Buckets [numBuckets]uint64
	Count   uint64
	SumNS   int64
}

// Snapshot copies the histogram's counters. Count is the sum of the
// copied buckets, so it always equals the +Inf cumulative bucket even
// while writers keep observing; only SumNS may lag or lead the buckets
// by in-flight observations.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.SumNS = h.sumNS.Load()
	return s
}

// QuantileNS returns the q-quantile (0 < q ≤ 1) as the inclusive upper
// bound of the bucket holding the ceil(q·count)-th smallest observation.
// The extraction is exact with respect to the recorded bucket counts —
// deterministic for a fixed event sequence, conservative by at most one
// bucket width (a factor of 2) against the true sample quantile.
// Observations in the +Inf bucket report the last finite bound (the
// histogram's saturation value). Returns 0 when empty.
func (h *Histogram) QuantileNS(q float64) int64 {
	snap := h.Snapshot()
	return snap.QuantileNS(q)
}

// QuantileNS is the snapshot form of Histogram.QuantileNS, letting one
// consistent snapshot serve several quantiles.
func (s HistogramSnapshot) QuantileNS(q float64) int64 {
	total := s.Count
	if total == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	// rank = ceil(q * total): the float product q·total, truncated to an
	// integer and rounded up when the truncation dropped a fraction.
	rank := uint64(q * float64(total))
	if float64(rank) < q*float64(total) {
		rank++
	}
	if rank == 0 {
		rank = 1
	}
	cum := uint64(0)
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			if i >= numFiniteBounds {
				return BucketBoundNS(numFiniteBounds - 1)
			}
			return BucketBoundNS(i)
		}
	}
	return BucketBoundNS(numFiniteBounds - 1)
}
