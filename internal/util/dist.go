package util

import "math"

// Dist draws item indices — the key-choice distributions of
// the YCSB-style txkv workloads. Implementations are immutable after
// construction and safe for concurrent use: all randomness comes from
// the caller's per-worker Rand, so seeded runs reproduce exactly and
// the transaction hot path never contends on sampler state.
type Dist interface {
	// Next draws one index using r as the randomness source.
	Next(r *Rand) int
}

// Uniform draws uniformly from [0, n).
type Uniform struct{ n int }

// NewUniform returns a uniform distribution over [0, n). n must be > 0.
func NewUniform(n int) Uniform {
	if n <= 0 {
		panic("util: uniform population must be positive")
	}
	return Uniform{n: n}
}

// Next implements Dist.
func (u Uniform) Next(r *Rand) int { return r.Intn(u.n) }

// Zipf draws rank indices from a zipfian distribution over [0, n): rank
// 0 is the hottest item and rank frequencies fall off as 1/(i+1)^theta —
// the standard model for skewed key popularity in key-value workloads
// (YCSB). Construction is O(n); it precomputes the exact inverse CDF
// plus a quantile index, so drawing is O(1) expected with no math.Pow on
// the hot path (the YCSB approximation formula this replaces cost one
// Pow — ~a third of a whole txkv Get — per draw; see DESIGN.md §7).
//
// Hot ranks are the low indices; callers that map ranks straight onto
// key space get their hot keys adjacent. The txkv store hashes keys
// before placement, so no extra scrambling pass is needed there.
type Zipf struct {
	n    int
	cdf  []float64 // cdf[i] = P(rank ≤ i); cdf[n-1] == 1
	qidx []int32   // qidx[k] = first rank i with cdf[i] ≥ k/zipfQuantiles
}

// zipfQuantiles is the quantile-index resolution: Next narrows a draw to
// an expected O(1) rank range before its final scan.
const zipfQuantiles = 1024

// NewZipf returns a zipfian distribution over [0, n) with skew theta.
// n must be > 0 and theta in (0, 1); theta near 1 is most skewed
// (YCSB's default is 0.99).
func NewZipf(n int, theta float64) *Zipf {
	if n <= 0 {
		panic("util: zipf population must be positive")
	}
	if theta <= 0 || theta >= 1 {
		panic("util: zipf skew must be in (0, 1)")
	}
	z := &Zipf{n: n, cdf: make([]float64, n)}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		z.cdf[i] = sum
	}
	for i := 0; i < n; i++ {
		z.cdf[i] /= sum
	}
	z.cdf[n-1] = 1 // exact despite rounding
	z.qidx = make([]int32, zipfQuantiles+1)
	rank := int32(0)
	for k := 1; k <= zipfQuantiles; k++ {
		for z.cdf[rank] < float64(k)/zipfQuantiles && int(rank) < n-1 {
			rank++
		}
		z.qidx[k] = rank
	}
	return z
}

// Next implements Dist. The draw is the first rank whose CDF reaches u;
// u ∈ [k/Q, (k+1)/Q) bounds that rank to [qidx[k], qidx[k+1]], so the
// binary search runs over one quantile bucket — O(1) expected.
func (z *Zipf) Next(r *Rand) int {
	u := r.Float64()
	k := int(u * zipfQuantiles)
	lo, hi := int(z.qidx[k]), int(z.qidx[k+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
