package space

import (
	"math"

	"repro/internal/scratch"
	"repro/internal/vecmath"
)

// Scratch is one goroutine's reusable state for Many and ManyFrom: the fixed
// argument widened to float64 for the L2 pair kernel. The zero value is
// ready; a warm Scratch makes both calls allocation-free. Not safe for
// concurrent use.
type Scratch struct {
	wide []float64
}

// widen stores v as float64 in the scratch and returns it. Widening a
// float32 is exact, so the kernels see the values L2Sqr would convert.
func (s *Scratch) widen(v []float32) []float64 {
	s.wide = scratch.Grow(s.wide, len(v))
	for i, x := range v {
		s.wide[i] = float64(x)
	}
	return s.wide
}

// Many sets dst[i] = sp.Distance(data[ids[i]], query) for every i; dst must
// have room for len(ids) values. The results are bit-identical to that loop,
// which is what every space but L2 runs. For L2 the query is widened once
// and the data points are measured two per pass (vecmath.L2SqrPair), so a
// refine or a scan stops re-converting the query per candidate and waits on
// two cache-missing points at a time.
//
// The fast path is chosen by the exact concrete type L2, never by an
// interface a wrapper could promote: a space that embeds L2 to override
// Distance (a Counter, a test gate) keeps every call going through its
// Distance.
func Many[T any](sp Space[T], s *Scratch, dst []float64, query T, data []T, ids []uint32) {
	dst = dst[:len(ids)]
	if _, ok := any(sp).(L2); ok {
		q32, vecs := any(query).([]float32), any(data).([][]float32)
		q := s.widen(q32)
		i := 0
		for ; i+2 <= len(ids); i += 2 {
			a, b := vecmath.L2SqrPair(q, vecs[ids[i]], vecs[ids[i+1]])
			dst[i], dst[i+1] = math.Sqrt(a), math.Sqrt(b)
		}
		if i < len(ids) {
			dst[i] = math.Sqrt(vecmath.L2Sqr(vecs[ids[i]], q32))
		}
		return
	}
	for i, id := range ids {
		dst[i] = sp.Distance(data[id], query)
	}
}

// ManyFrom sets dst[i] = sp.Distance(x, pivots[i]) for every pivot — x is the
// left (data) argument, as in pivot ranking; dst must have room for
// len(pivots) values. Bit-identical to that loop, with the same L2 fast path
// as Many: the pair kernel measures pivot−x where the loop measures x−pivot,
// and the square of a float64 difference does not depend on its sign.
func ManyFrom[T any](sp Space[T], s *Scratch, dst []float64, x T, pivots []T) {
	dst = dst[:len(pivots)]
	if _, ok := any(sp).(L2); ok {
		x32, vecs := any(x).([]float32), any(pivots).([][]float32)
		q := s.widen(x32)
		i := 0
		for ; i+2 <= len(vecs); i += 2 {
			a, b := vecmath.L2SqrPair(q, vecs[i], vecs[i+1])
			dst[i], dst[i+1] = math.Sqrt(a), math.Sqrt(b)
		}
		if i < len(vecs) {
			dst[i] = math.Sqrt(vecmath.L2Sqr(x32, vecs[i]))
		}
		return
	}
	for i, pv := range pivots {
		dst[i] = sp.Distance(x, pv)
	}
}
