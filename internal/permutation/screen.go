package permutation

import (
	"math"
	"sync"

	"repro/internal/scratch"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// l2Screen lets ClosestWith pick the n closest of m pivots under the exact
// type space.L2 without measuring all m: the pivots widened into one
// contiguous row-major float64 arena (m·dim·8 bytes; the blocked product runs
// measurably faster over it than over the float32 pivots), their squared
// norms, and the rounding slack of the bound closest relies on.
type l2Screen struct {
	vecs  [][]float32 // the pivots, measured when they survive
	rows  []float64   // pivot i widened, at rows[i*dim : (i+1)*dim]
	norms []float64   // ‖p_i‖², a sum of exact widened squares
	slack float64     // (dim+8)·2⁻⁵⁰; see closest
}

// screenOf returns the function that builds items' screen on its first call,
// so that pivot sets never asked for a prefix (the scan filters, perm-vptree)
// hold no arena; nil when sp is not exactly space.L2. A type that embeds L2 to
// override Distance gets no screen, so every one of its calls still goes
// through its Distance, as in space.ManyFrom.
func screenOf[T any](sp space.Space[T], items []T) func() *l2Screen {
	if _, ok := any(sp).(space.L2); !ok {
		return nil
	}
	return sync.OnceValue(func() *l2Screen { return newL2Screen(any(items).([][]float32)) })
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

// closest is ClosestWith(s, x, n) for 0 < n < m: it fills s.Order and reports
// true, or reports false when x cannot be screened — its length is not the
// pivots', or it holds a NaN or an infinity — and the caller measures every
// pivot instead.
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
// ClosestWith always selects.
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
