// Package core implements the permutation-based k-NN search methods that are
// the subject of the paper (§2): brute-force filtering of permutations (full,
// binarized, quantized, and the raw-distance ablation), the Permutation
// Prefix Index (PP-index), the Metric Inverted File (MI-file), the
// Neighborhood APProximation index (NAPP), indexing permutations in a VP-tree
// (Figueroa & Fredriksson), and Fagin et al.'s OMEDRANK rank-aggregation
// baseline.
//
// All methods are filter-and-refine: the filtering stage selects candidate
// identifiers using only precomputed permutation information, and the refine
// stage re-ranks the candidates with the true distance. The number of
// candidates is controlled by a gamma parameter expressed as a fraction of
// the data set size, exactly as in §2.2 of the paper.
//
// That skeleton is written once, in pipeline.go, and a kind is what is left:
//
//   - The pipeline owns the candidate budget g = max(k, gamma*n) clamped to
//     n, with gamma the query's or else the built one, the same rule for
//     every kind built with a gamma; the trace clock and counters (a kind
//     never sees the trace, and without one the clock is never read);
//     topk.SelectK over scored candidates when there are more than g,
//     attributed to merge; the refine, one space.Nearest call on pooled
//     scratch (index.Pooled answers k <= 0 before the pipeline runs);
//     Stats().BuildDistances; the constructor prelude (empty corpus, pivot
//     count clamped to n, seeded sampling) and the loader frame (header
//     check, payload, clean end).
//   - A kind supplies its option struct and defaults, the build of its
//     filter structure, filter(scratch, query, g, params) returning the
//     candidates and how many ids it looked at, size() for Stats, and its
//     payload's save and load. The four brute-force kinds go one step
//     further: they are one ScanFilter over four row codecs.
package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/permutation"
)

// PermDist selects the distance used to compare permutations in the
// filtering stage.
type PermDist int

const (
	// Rho is Spearman's rho (sum of squared rank differences), the most
	// effective choice per §2.1 and the default everywhere.
	Rho PermDist = iota
	// FootruleDist is the Footrule (sum of absolute rank differences).
	FootruleDist
)

// String returns the report name of the permutation distance.
func (d PermDist) String() string {
	switch d {
	case Rho:
		return "spearman-rho"
	case FootruleDist:
		return "footrule"
	default:
		return fmt.Sprintf("PermDist(%d)", int(d))
	}
}

// gammaCount converts a candidate fraction into an absolute candidate count,
// clamped to [k, n] so a query can always be answered.
func gammaCount(frac float64, n, k int) int {
	g := int(frac * float64(n))
	if g < k {
		g = k
	}
	if g > n {
		g = n
	}
	return g
}

// computeOrders returns the flattened n x mi matrix holding, for each data
// point, the indices of its mi closest pivots (closest first), selected
// without sorting the m-mi pivots no index reads.
func computeOrders[T any](pv *permutation.Pivots[T], data []T, mi int) []int32 {
	mi = min(mi, pv.M())
	return perPoint(data, mi, func(s *permutation.Scratch, x T) []int32 { return pv.ClosestWith(s, x, mi) })
}

// perPoint returns the flattened n x w matrix whose row i is row(s, data[i]),
// computed in parallel (the paper builds permutation indexes with four
// threads; we use GOMAXPROCS). Each worker passes its own permutation
// scratch, so a build does not allocate per point.
func perPoint[T any](data []T, w int, row func(*permutation.Scratch, T) []int32) []int32 {
	out := make([]int32, len(data)*w)
	var pool engine.Pool
	perWorker := make([]permutation.Scratch, pool.Workers())
	pool.For(len(data), func(worker, i int) {
		copy(out[i*w:(i+1)*w], row(&perWorker[worker], data[i]))
	})
	return out
}
