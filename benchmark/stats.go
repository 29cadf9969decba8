package main

import (
	"math"
	"sort"
)

// summary is the dispersion every reported number carries.
type summary struct {
	N                        int
	Min, Q1, Median, Q3, Max float64
}

// summarize sorts a copy of xs. Quartiles follow Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), which is what
// the driver's spread check uses, so a spread computed here reads the
// same there.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return summary{
		N:      len(s),
		Min:    s[0],
		Q1:     quantileExclusive(s, 1, 4),
		Median: quantileExclusive(s, 2, 4),
		Q3:     quantileExclusive(s, 3, 4),
		Max:    s[len(s)-1],
	}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// quantileExclusive returns the k-th of n-quantiles of sorted s.
func quantileExclusive(s []float64, k, n int) float64 {
	ld := len(s)
	if ld == 1 {
		return s[0]
	}
	m := ld + 1
	j := k * m / n
	if j < 1 {
		j = 1
	}
	if j > ld-1 {
		j = ld - 1
	}
	delta := k*m - j*n
	return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// tailLevels are the percentiles a latency may be reported at.
var tailLevels = []float64{50, 90, 99, 99.9, 99.99}

// tailLevel returns the highest percentile of tailLevels that still has
// at least ten samples beyond it, given n samples.
func tailLevel(n int) float64 {
	best := tailLevels[0]
	for _, p := range tailLevels {
		// The small tolerance keeps n = 1000 at p99 despite 1-0.99 not
		// being exact in binary.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (nearest rank) of sorted s.
func percentile(s []int64, p float64) int64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// cappedPercentile is percentile at min(want, tailLevel(len(s))): the
// level actually used is returned with the value.
func cappedPercentile(s []int64, want float64) (value int64, level float64) {
	level = math.Min(want, tailLevel(len(s)))
	return percentile(s, level), level
}
