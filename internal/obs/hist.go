// Package obs is the repo-wide observability layer: lock-free
// log-scaled latency/size histograms, labeled counters behind a
// registry, a snapshot/diff API, and a Prometheus-text exposition
// writer. See DESIGN.md §11.
//
// Two histogram flavors cover the two write-side regimes:
//
//   - Hist is a plain (non-atomic) single-writer histogram. It is the
//     engine-side building block: each engine thread owns one shard
//     (TxnShard) and bumps plain counters exactly like the existing
//     stm.Stats fields, so the instrumented commit path stays free of
//     atomics and allocations. Reading a Hist is only defined while
//     its writer is quiescent — the same contract as stm.Thread.Stats.
//
//   - AtomicHist is a lock-free concurrent histogram (atomic adds).
//     It is the server-side building block, where many connection
//     goroutines record into the same per-op/per-phase histogram and
//     a scrape may happen at any time.
//
// Bucket layout (shared by both flavors): HdrHistogram-style
// log-linear buckets with subBits=3 — values below 16 get exact
// unit-width buckets, and every power-of-two octave above that is
// split into 8 sub-buckets, bounding relative error at 12.5%. The
// full uint64 range maps onto NumBuckets (496) buckets, so recording
// can never miss: overflowing values land in the last bucket.
package obs

import "math/bits"

const (
	subBits  = 3
	subCount = 1 << subBits // 8 sub-buckets per octave

	// NumBuckets covers all of uint64: 2*subCount exact buckets for
	// v < 2*subCount, then (63-subBits)*subCount log-linear buckets.
	NumBuckets = (63-subBits)*subCount + 2*subCount // 496
)

// BucketIndex maps a value to its bucket. Values below 2*subCount map
// exactly; above that, bucket width doubles every octave.
func BucketIndex(v uint64) int {
	if v < 2*subCount {
		return int(v)
	}
	exp := uint(bits.Len64(v)) - 1 - subBits // >= 1 here
	mantissa := int((v >> exp) & (subCount - 1))
	return int(exp)<<subBits + subCount + mantissa
}

// BucketLower returns the inclusive lower bound of bucket i.
func BucketLower(i int) uint64 {
	if i < 2*subCount {
		return uint64(i)
	}
	exp := uint(i>>subBits) - 1
	mantissa := uint64(i & (subCount - 1))
	return (subCount + mantissa) << exp
}

// BucketUpper returns the inclusive upper bound of bucket i. The last
// bucket absorbs every overflowing value, so its upper bound is the
// maximum uint64.
func BucketUpper(i int) uint64 {
	if i >= NumBuckets-1 {
		return ^uint64(0)
	}
	return BucketLower(i+1) - 1
}

// Hist is a fixed-size log-scaled histogram with plain (non-atomic)
// counters. Single writer; readers must wait for the writer to
// quiesce (see package doc). The zero value is ready to use.
type Hist struct {
	Count   uint64
	Sum     uint64
	Buckets [NumBuckets]uint64
}

// Record adds one observation. Plain increments: no atomics, no
// allocation, no branches beyond the bucket math.
func (h *Hist) Record(v uint64) {
	h.Buckets[BucketIndex(v)]++
	h.Count++
	h.Sum += v
}

// Add merges o into h bucket-by-bucket (used to fold per-thread
// shards into one distribution).
func (h *Hist) Add(o *Hist) {
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Sub subtracts an earlier snapshot o from h, clamping at zero so a
// diff across a torn window never goes negative (see
// AtomicHist.Snapshot for when that can happen).
func (h *Hist) Sub(o *Hist) {
	h.Count = clampSub(h.Count, o.Count)
	h.Sum = clampSub(h.Sum, o.Sum)
	for i := range h.Buckets {
		h.Buckets[i] = clampSub(h.Buckets[i], o.Buckets[i])
	}
}

func clampSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// Quantile returns an upper bound for the q-quantile (0 ≤ q ≤ 1) of
// the recorded values: the inclusive upper edge of the bucket holding
// the rank-⌈q·Count⌉ observation. Monotone in q by construction.
// Returns 0 on an empty histogram.
func (h *Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank = ceil(q*Count), at least 1.
	rank := uint64(q * float64(h.Count))
	if float64(rank) < q*float64(h.Count) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var cum uint64
	for i := range h.Buckets {
		cum += h.Buckets[i]
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(NumBuckets - 1)
}
