package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice; 0 for an empty one.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// sortedCopy returns xs ascending without disturbing the caller's order.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// relSpread says how far apart the reps of one metric lie: the width of the
// narrowest window that holds a majority of them, as a share of their
// median. Like the median itself it is blind to a disturbed minority — a
// cold first set-up, a segment a neighbour trampled on.
func relSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	m := quantile(s, 50)
	if m == 0 {
		return 0
	}
	majority := len(s)/2 + 1
	width := math.Inf(1)
	for i := 0; i+majority <= len(s); i++ {
		width = min(width, s[i+majority-1]-s[i])
	}
	return width / math.Abs(m)
}

// tailPercentiles are the candidates of tailPercentile, ascending.
var tailPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// tailPercentile picks the highest percentile an n-sample distribution
// supports: the highest candidate with at least ten samples beyond it. ok is
// false when even the median has fewer than ten samples above it.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		// The epsilon absorbs 100-99.9 not being exactly 0.1 in binary.
		if beyond := int(float64(n)*(100-c)/100 + 1e-6); beyond >= 10 {
			p, ok = c, true
		}
	}
	return p, ok
}
