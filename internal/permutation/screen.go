package permutation

import (
	"math"
	"sync"

	"repro/internal/scratch"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// screener is the seam behind ClosestWith's screens: closest is
// ClosestWith(s, x, n) for 0 < n < m that measures only the pivots it cannot
// rule out. It fills s.Order and s.Measured and reports true, or reports
// false when x cannot be screened, and the caller measures every pivot.
type screener[T any] interface {
	closest(s *Scratch, x T, n int) bool
}

// screenOf returns the function that hands out items' screen, or nil when sp
// has none. The screens are chosen by exact concrete type, as in
// space.ManyFrom: a type that embeds a space to override Distance (a
// space.Counter, a test gate) gets no screen, so every one of its calls still
// goes through its Distance.
//
// Under space.L2 the screen is built on its first call, so that pivot sets
// never asked for a prefix (the scan filters, perm-vptree) hold no arena; it
// is nil for pivots it cannot vouch for (newL2Screen). Under the two
// Levenshteins it is the pivots' compositions (space.CountTable), 16 bytes a
// pivot, built at once.
func screenOf[T any](sp space.Space[T], items []T) func() screener[T] {
	if _, ok := any(sp).(space.L2); ok {
		return sync.OnceValue(func() screener[T] {
			if sc := newL2Screen(any(items).([][]float32)); sc != nil {
				return any(sc).(screener[T])
			}
			return nil
		})
	}
	counts := space.CountTable(sp, items)
	if counts == nil {
		return nil
	}
	all := make([]uint32, len(items))
	for i := range all {
		all[i] = uint32(i)
	}
	var sc screener[T] = &editScreen[T]{sp: sp, items: items, counts: counts, all: all}
	return func() screener[T] { return sc }
}

// editScreen is the composition screen of pivots under exactly
// space.Levenshtein or space.NormalizedLevenshtein.
type editScreen[T any] struct {
	sp     space.Space[T]
	items  []T
	counts []space.Counts // the pivots' compositions
	all    []uint32       // 0, 1, …, m-1: every pivot is a candidate
}

// closest selects through space.Closest, whose queue keeps the n smallest
// (distance, pivot index) pairs — ClosestWith's selection — while it skips
// every pivot whose composition bound exceeds the n-th distance found so
// far. It leaves s.Dists as it was and never declines.
func (sc *editScreen[T]) closest(s *Scratch, x T, n int) bool {
	s.upper.Reset(n)
	s.Measured = space.Closest(sc.sp, &s.sp, &s.upper, x, sc.items, sc.counts, sc.all)
	s.sel = s.upper.AppendResults(s.sel[:0])
	s.Order = s.Order[:0]
	for _, c := range s.sel {
		s.Order = append(s.Order, int32(c.ID))
	}
	return true
}

// l2Screen is the screen of pivots under the exact type space.L2: the
// pivots widened into one contiguous row-major float64 arena (m·dim·8 bytes;
// the blocked product runs measurably faster over it than over the float32
// pivots), their squared norms, and the rounding slack of the bound closest
// relies on.
type l2Screen struct {
	vecs  [][]float32 // the pivots, measured when they survive
	rows  []float64   // pivot i widened, at rows[i*dim : (i+1)*dim]
	norms []float64   // ‖p_i‖², a sum of exact widened squares
	slack float64     // (dim+8)·2⁻⁵⁰; see closest
}

// newL2Screen returns the screen of vecs, or nil when they differ in length
// or one holds a NaN or an infinity, whose bound would mean nothing.
func newL2Screen(vecs [][]float32) *l2Screen {
	dim := len(vecs[0])
	sc := &l2Screen{
		vecs:  vecs,
		rows:  make([]float64, len(vecs)*dim),
		norms: make([]float64, len(vecs)),
		slack: float64(dim+8) * 0x1p-50,
	}
	for i, v := range vecs {
		if len(v) != dim {
			return nil
		}
		row := sc.rows[i*dim : (i+1)*dim]
		for j, f := range v {
			row[j] = float64(f)
		}
		if sc.norms[i] = vecmath.Dot(v, v); !(sc.norms[i] <= math.MaxFloat64) {
			return nil
		}
	}
	return sc
}

// closest declines an x whose length is not the pivots', or that holds a NaN
// or an infinity.
//
// One blocked pass (vecmath.DotRows) gives every pivot p its approximate
// squared distance a = ‖x‖² + ‖p‖² − 2x·p. Products of widened float32s are
// exact in float64, so a and the L2Sqr e the exact path computes differ only
// by the rounding of sums of dim terms and a few operations on them:
// |a − e| ≤ (4·dim + 9)·2⁻⁵³·(‖x‖² + ‖p‖²) with room to spare, and
// b = slack·(‖x‖² + ‖p‖²) is more than twice that, so a − b and a + b, as
// rounded, still bracket e. Let τ be the n-th smallest a + b. A pivot whose
// a − b exceeds τ·(1 + 2⁻⁴⁸) has an e larger than those n pivots' by a
// relative margin the square root's rounding cannot erase: it is strictly
// farther than n others, so it is not among the n closest, ties toward the
// smaller index included. Only the survivors are measured, by space.Many —
// the bits ManyFrom returns for them — and selected by (distance, index) as
// ClosestWith always selects. s.Dists is left holding the survivors'
// distances, in survivor order, over the pivots' lower bounds.
func (sc *l2Screen) closest(s *Scratch, x []float32, n int) bool {
	if len(x) != len(sc.vecs[0]) {
		return false
	}
	xx := vecmath.Dot(x, x)
	if !(xx <= math.MaxFloat64) {
		return false
	}
	s.Dists = scratch.Grow(s.Dists, len(sc.vecs))
	vecmath.DotRows(s.Dists, x, sc.rows)
	s.upper.Reset(n)
	for i, dot := range s.Dists {
		sum := xx + sc.norms[i]
		a, b := sum-2*dot, sc.slack*sum
		s.Dists[i] = a - b // from here on, the lower bound
		if s.upper.WouldAccept(a + b) {
			s.upper.Push(uint32(i), a+b)
		}
	}
	tau, _ := s.upper.Bound()
	cut := tau * (1 + 0x1p-48)
	ids := s.ids[:0]
	for i, lower := range s.Dists {
		if lower <= cut {
			ids = append(ids, uint32(i))
		}
	}
	s.ids = ids
	s.Measured = len(ids)
	// The bounds are spent; the survivors' distances reuse their room.
	dists := s.Dists[:len(ids)]
	space.Many[[]float32](space.L2{}, &s.sp, dists, x, sc.vecs, ids)
	sel := s.sel[:0]
	for i, id := range ids {
		sel = append(sel, topk.Neighbor{ID: id, Dist: dists[i]})
	}
	s.sel = sel
	s.Order = s.Order[:0]
	for _, c := range topk.SelectK(sel, n) {
		s.Order = append(s.Order, int32(c.ID))
	}
	return true
}
