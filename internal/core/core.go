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
//   - The pipeline owns the k <= 0 guard; the candidate budget g = max(k,
//     gamma*n) clamped to n, with gamma the query's or else the built one,
//     the same rule for every kind built with a gamma; the trace clock and
//     counters (a kind never sees the trace, and without one the clock is
//     never read); topk.SelectK over scored candidates when there are more
//     than g, attributed to merge; the one refineInto and its pooled queue;
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
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/permutation"
	"repro/internal/space"
	"repro/internal/topk"
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

// refineScratch is the refine stage's pooled state: the candidate ids of
// one space.Closest call, the call's own scratch and the result queue.
type refineScratch struct {
	ids   []uint32
	sp    space.Scratch
	queue topk.Queue
}

// refineInto computes true distances from the candidates to the query and
// appends the k nearest, ordered by increasing distance, to dst. Candidates
// come either as bare ids or as pre-scored neighbors (the output of
// topk.SelectK, of which only the ids are consumed); ids must be unique.
// Data points are the left distance argument (left queries). The
// candidates go to space.Closest in one call: with a composition table
// (counts, see pipeline) it measures only those a bound cannot rule out,
// otherwise all of them. The scratch is owned by the caller; refineInto
// does not allocate when dst and the scratch have warmed-up capacity.
//
// The answer does not depend on candidate order, nor on the screen:
// topk.Queue keeps the k smallest by (distance, id), so ties at the k
// boundary go to the smaller id however the filter happened to emit its
// candidates, and a candidate the screen skips is not among them.
//
// When tr is non-nil the distances measured count as RefineDistances, the
// exact distances and the queue are attributed to the refine stage and the
// final ordered copy-out to the merge stage (one time.Now pair per stage; no
// per-candidate bookkeeping, so the traced path stays allocation-free).
func refineInto[T any, C uint32 | topk.Neighbor](sp space.Space[T], data []T, counts []space.Counts, query T, cands []C, k int, rs *refineScratch, dst []topk.Neighbor, tr *obs.QueryTrace) []topk.Neighbor {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	var ids []uint32
	switch cs := any(cands).(type) {
	case []uint32:
		ids = cs
	case []topk.Neighbor:
		ids = rs.ids[:0]
		for _, c := range cs {
			ids = append(ids, c.ID)
		}
		rs.ids = ids
	}
	rs.queue.Reset(k)
	measured := space.Closest(sp, &rs.sp, &rs.queue, query, data, counts, ids)
	if tr != nil {
		tr.RefineDistances += int64(measured)
		obs.AddSince(&tr.RefineNs, t0)
		t0 = time.Now()
	}
	dst = rs.queue.AppendResults(dst)
	if tr != nil {
		obs.AddSince(&tr.MergeNs, t0)
	}
	return dst
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
