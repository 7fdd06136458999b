// Package permutation implements the core data structure of the paper: the
// representation of a data point as a *permutation* — the ranked list of a
// fixed pivot set, ordered by distance from the point (§2.1).
//
// Terminology used throughout this repository:
//
//   - The "order" of a point x is the sequence of pivot indices sorted by
//     increasing distance from x (closest pivot first). The PP-index,
//     MI-file and NAPP consume order prefixes.
//   - The "permutation" of x is the inverse of the order: perm[i] is the
//     0-based rank of pivot i among all pivots sorted by distance from x.
//     Spearman's rho and the Footrule compare permutations element-wise.
//
// Ties between equidistant pivots are broken toward the smaller pivot index,
// as in the paper.
package permutation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/scratch"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// Pivots holds the m reference points of a permutation index together with
// the space they live in. Pivots are immutable once created and safe for
// concurrent use.
type Pivots[T any] struct {
	space space.Space[T]
	items []T
	// ids records, when the pivots were drawn from a data set (Sample,
	// FromIDs), the position of each pivot in that data set. Persistence
	// (internal/codec) stores these ids instead of the objects, keeping
	// the on-disk format object-type-agnostic. nil for explicit pivot
	// sets (NewPivots), which therefore cannot be persisted.
	ids []int32
	// screen lets ClosestWith measure only the pivots it cannot rule out;
	// nil unless the space is exactly one of the two Levenshteins (see
	// newEditScreen).
	screen *editScreen[T]
}

// NewPivots wraps an explicit pivot list.
func NewPivots[T any](sp space.Space[T], items []T) (*Pivots[T], error) {
	if len(items) == 0 {
		return nil, fmt.Errorf("permutation: empty pivot set")
	}
	cp := make([]T, len(items))
	copy(cp, items)
	return &Pivots[T]{space: sp, items: cp, screen: newEditScreen(sp, cp)}, nil
}

// Sample selects m pivots uniformly at random (without replacement) from
// data, the standard pivot-selection strategy of the paper. It fails if the
// data set has fewer than m points.
func Sample[T any](r *rand.Rand, sp space.Space[T], data []T, m int) (*Pivots[T], error) {
	if m <= 0 {
		return nil, fmt.Errorf("permutation: pivot count m must be positive, got %d", m)
	}
	if m > len(data) {
		return nil, fmt.Errorf("permutation: cannot sample %d pivots from %d points", m, len(data))
	}
	idx := r.Perm(len(data))[:m]
	items := make([]T, m)
	ids := make([]int32, m)
	for i, j := range idx {
		items[i] = data[j]
		ids[i] = int32(j)
	}
	return &Pivots[T]{space: sp, items: items, ids: ids, screen: newEditScreen(sp, items)}, nil
}

// FromIDs reconstructs a pivot set from data-set positions, the inverse of
// SourceIDs. Index loaders use it to rebuild sampled pivots without ever
// serializing the pivot objects themselves.
func FromIDs[T any](sp space.Space[T], data []T, ids []int32) (*Pivots[T], error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("permutation: empty pivot id set")
	}
	items := make([]T, len(ids))
	cp := make([]int32, len(ids))
	for i, id := range ids {
		if id < 0 || int(id) >= len(data) {
			return nil, fmt.Errorf("permutation: pivot id %d out of range [0, %d)", id, len(data))
		}
		items[i] = data[id]
		cp[i] = id
	}
	return &Pivots[T]{space: sp, items: items, ids: cp, screen: newEditScreen(sp, items)}, nil
}

// SourceIDs returns the data-set position of each pivot when the set was
// sampled from a data set, or nil for explicit pivot sets (shared, do not
// mutate).
func (p *Pivots[T]) SourceIDs() []int32 { return p.ids }

// M returns the number of pivots.
func (p *Pivots[T]) M() int { return len(p.items) }

// Items returns the pivot objects (shared, do not mutate).
func (p *Pivots[T]) Items() []T { return p.items }

// Space returns the underlying distance space.
func (p *Pivots[T]) Space() space.Space[T] { return p.space }

// Distances computes the distance from x to every pivot into dst, reusing
// its capacity (it may be nil), and returns the filled slice. The point x is
// passed as the *data* (left) argument of the distance, matching the paper's
// left-query convention for asymmetric distances. Hot paths use
// DistancesWith with a reusable Scratch instead.
func (p *Pivots[T]) Distances(x T, dst []float64) []float64 {
	s := Scratch{Dists: dst}
	return p.DistancesWith(&s, x)
}

// DistancesWith is Distances into s.Dists (also returned), all pivots in one
// space.ManyFrom call on s. Allocation-free once s has warmed up.
func (p *Pivots[T]) DistancesWith(s *Scratch, x T) []float64 {
	s.Dists = scratch.Grow(s.Dists, len(p.items))
	space.ManyFrom(p.space, &s.sp, s.Dists, x, p.items)
	s.Measured = len(p.items)
	return s.Dists
}

// Order computes the pivot order induced by x: dst[r] is the index of the
// (r+1)-th closest pivot. dst may be nil; the filled slice is returned.
// The intermediate distance buffer is allocated per call; hot paths use
// OrderWith with a reusable Scratch instead.
func (p *Pivots[T]) Order(x T, dst []int32) []int32 {
	dists := p.Distances(x, nil)
	return orderOf(dists, dst)
}

// Permutation computes the permutation induced by x: dst[i] is the 0-based
// rank of pivot i. dst may be nil; the filled slice is returned. Hot paths
// use PermutationWith with a reusable Scratch instead.
func (p *Pivots[T]) Permutation(x T, dst []int32) []int32 {
	order := p.Order(x, nil)
	return invert(order, dst)
}

// Scratch holds the per-query buffers of one goroutine's permutation
// computations: the pivot-distance vector plus the derived order and
// permutation. After the first few queries have grown the buffers to the
// pivot count, DistancesWith, OrderWith, ClosestWith and PermutationWith
// stop allocating entirely.
//
// A Scratch is single-goroutine state; the slices it hands out are
// invalidated by the next call on the same Scratch.
type Scratch struct {
	Dists []float64
	Order []int32
	Perm  []int32
	// Measured is the number of pivot distances the last call on the
	// Scratch computed: m, or fewer after a ClosestWith the composition
	// screen served.
	Measured int
	// sel holds ClosestWith's (pivot index, distance) pairs.
	sel []topk.Neighbor
	// sp is the bulk distance call's state (the L2 point widened once, the
	// Levenshtein pattern's match table).
	sp space.Scratch
	// upper is the composition screen's queue of the n closest pivots.
	upper topk.Queue
}

// OrderWith computes the pivot order of x into s.Order (also returned),
// reusing s.Dists for the distance computation. Allocation-free once s has
// warmed up.
func (p *Pivots[T]) OrderWith(s *Scratch, x T) []int32 {
	p.DistancesWith(s, x)
	s.Order = orderOf(s.Dists, s.Order)
	return s.Order
}

// Ranks turns the pivot distances held in s.Dists into the permutation they
// induce, into s.Perm (also returned): the second half of PermutationWith,
// for callers that computed the distances themselves.
func (s *Scratch) Ranks() []int32 {
	s.Order = orderOf(s.Dists, s.Order)
	s.Perm = invert(s.Order, s.Perm)
	return s.Perm
}

// ClosestWith computes the n closest pivots of x, closest first, into
// s.Order (also returned): exactly OrderWith(s, x)[:n], ties toward the
// smaller pivot index included, without ordering the other m-n pivots. The
// inverted-file methods only ever read such a prefix (NAPP's mi and ms, the
// MI-file's, the PP-index's prefix length), so they select it with
// topk.SelectK over (distance, pivot index) — the incremental sort of §2.2 —
// instead of sorting all m pivots. Every space measures all m pivots
// (DistancesWith, so under L2 the SSE2 pair kernel) and leaves them in
// s.Dists, except that for 0 < n < m, under the exact types
// space.Levenshtein and space.NormalizedLevenshtein, a screen bounds each
// pivot by its composition (space.Closest), measures only the pivots that
// can still make the prefix and leaves s.Dists as it was; s.Measured counts
// the pivots measured either way. n is clamped to [0, m]. Allocation-free
// once s has warmed up.
func (p *Pivots[T]) ClosestWith(s *Scratch, x T, n int) []int32 {
	if p.screen != nil && n > 0 && n < len(p.items) {
		p.screen.closest(s, x, n)
		return s.Order
	}
	sel := s.sel[:0]
	for i, d := range p.DistancesWith(s, x) {
		sel = append(sel, topk.Neighbor{ID: uint32(i), Dist: d})
	}
	s.sel = sel
	s.Order = s.Order[:0]
	for _, c := range topk.SelectK(sel, n) {
		s.Order = append(s.Order, int32(c.ID))
	}
	return s.Order
}

// PermutationWith computes the permutation of x into s.Perm (also
// returned), reusing s.Dists and s.Order. Allocation-free once s has warmed
// up.
func (p *Pivots[T]) PermutationWith(s *Scratch, x T) []int32 {
	p.DistancesWith(s, x)
	return s.Ranks()
}

// orderOf argsorts dists by (distance, index). The generic slices sort keeps
// it allocation-free when dst already has capacity.
func orderOf(dists []float64, dst []int32) []int32 {
	dst = dst[:0]
	for i := range dists {
		dst = append(dst, int32(i))
	}
	slices.SortFunc(dst, func(a, b int32) int {
		da, db := dists[a], dists[b]
		switch {
		case da < db:
			return -1
		case da > db:
			return 1
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	})
	return dst
}

// invert turns an order into a permutation (or vice versa: the inverse of a
// permutation is its order).
func invert(order []int32, dst []int32) []int32 {
	if cap(dst) < len(order) {
		dst = make([]int32, len(order))
	}
	dst = dst[:len(order)]
	for r, i := range order {
		dst[i] = int32(r)
	}
	return dst
}

// Invert returns the inverse of a permutation vector: applied to an order it
// yields the permutation, and applied to a permutation it yields the order.
func Invert(perm []int32) []int32 { return invert(perm, nil) }

// IsPermutation reports whether v contains each value 0..len(v)-1 exactly
// once.
func IsPermutation(v []int32) bool {
	seen := make([]bool, len(v))
	for _, x := range v {
		if x < 0 || int(x) >= len(v) || seen[x] {
			return false
		}
		seen[x] = true
	}
	return true
}

// SpearmanRho returns Spearman's rho distance between two permutations:
// the sum of squared rank differences (the squared L2 distance). Per §2.1
// this is the most effective permutation distance and the default in all
// permutation indexes here. The integer arithmetic happens in the
// width-dispatched vecmath kernel; results are exact, so every caller —
// including persisted indexes and recall goldens — sees identical values.
func SpearmanRho(a, b []int32) float64 {
	if len(a) != len(b) {
		panic("permutation: length mismatch")
	}
	return float64(vecmath.SpearmanRho(a, b))
}

// Footrule returns the Footrule distance between two permutations: the sum
// of absolute rank differences (the L1 distance).
func Footrule(a, b []int32) float64 {
	if len(a) != len(b) {
		panic("permutation: length mismatch")
	}
	return float64(vecmath.Footrule(a, b))
}

// RhoMetric is sqrt(SpearmanRho): the Euclidean distance between permutation
// vectors, as a space.Space so a generic index (a VP-tree per Figueroa &
// Fredriksson, §2.3) can index permutations directly. Raw rho is the
// *squared* Euclidean distance and hence not a metric; this monotone
// transform orders points identically but satisfies the triangle
// inequality, enabling metric pruning.
type RhoMetric struct{}

// Distance implements space.Space.
func (RhoMetric) Distance(a, b []int32) float64 { return math.Sqrt(SpearmanRho(a, b)) }

// Name implements space.Space.
func (RhoMetric) Name() string { return "spearman-rho-sqrt" }

// Properties implements space.Space: L2 over rank vectors is a metric.
func (RhoMetric) Properties() space.Properties {
	return space.Properties{Metric: true, Symmetric: true}
}
