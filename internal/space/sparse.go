package space

import (
	"fmt"
	"math"
	"sort"
)

// SparseVector is a high-dimensional vector stored as parallel slices of
// strictly increasing indices and their non-zero values. The Wiki-sparse
// data set (TF-IDF vectors over a 10^5-term vocabulary, ~150 non-zeros each)
// uses this representation.
//
// Norm caches the Euclidean norm; NewSparseVector fills it in. A zero Norm
// with non-empty values indicates a vector built by hand — call Renorm.
type SparseVector struct {
	Idx  []int32
	Val  []float32
	Norm float64
}

// NewSparseVector builds a sparse vector from index/value pairs. The pairs
// need not be sorted; they are sorted here. Negative or duplicate indices
// and non-finite values are rejected.
func NewSparseVector(idx []int32, val []float32) (SparseVector, error) {
	if len(idx) != len(val) {
		return SparseVector{}, fmt.Errorf("space: sparse vector has %d indices but %d values", len(idx), len(val))
	}
	type pair struct {
		i int32
		v float32
	}
	ps := make([]pair, len(idx))
	for k := range idx {
		if idx[k] < 0 {
			return SparseVector{}, fmt.Errorf("space: negative index %d at position %d", idx[k], k)
		}
		if math.IsNaN(float64(val[k])) || math.IsInf(float64(val[k]), 0) {
			return SparseVector{}, fmt.Errorf("space: non-finite value at position %d", k)
		}
		ps[k] = pair{idx[k], val[k]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].i < ps[b].i })
	sv := SparseVector{Idx: make([]int32, len(ps)), Val: make([]float32, len(ps))}
	for k, p := range ps {
		if k > 0 && p.i == ps[k-1].i {
			return SparseVector{}, fmt.Errorf("space: duplicate index %d", p.i)
		}
		sv.Idx[k] = p.i
		sv.Val[k] = p.v
	}
	sv.Renorm()
	return sv, nil
}

// Renorm recomputes the cached Euclidean norm.
func (v *SparseVector) Renorm() {
	var s float64
	for _, x := range v.Val {
		s += float64(x) * float64(x)
	}
	v.Norm = math.Sqrt(s)
}

// NNZ returns the number of stored non-zero entries.
func (v SparseVector) NNZ() int { return len(v.Idx) }

// SparseDot returns the inner product of two sparse vectors using a
// sorted-index merge. The paper's C++ code accelerates this intersection
// with an all-against-all SIMD comparison (Schlegel et al.); the merge here
// is the portable equivalent with a galloping fast path when one operand is
// much shorter than the other.
func SparseDot(a, b SparseVector) float64 {
	// Galloping pays off when lengths are very unbalanced.
	if len(a.Idx) > 16*len(b.Idx) {
		a, b = b, a
	}
	if len(b.Idx) > 16*len(a.Idx) {
		return gallopDot(a, b)
	}
	var s float64
	i, j := 0, 0
	for i < len(a.Idx) && j < len(b.Idx) {
		switch {
		case a.Idx[i] < b.Idx[j]:
			i++
		case a.Idx[i] > b.Idx[j]:
			j++
		default:
			s += float64(a.Val[i]) * float64(b.Val[j])
			i++
			j++
		}
	}
	return s
}

// gallopDot computes the dot product when a is much shorter than b: for each
// element of a it binary-searches the remaining suffix of b.
func gallopDot(a, b SparseVector) float64 {
	var s float64
	lo := 0
	for i := range a.Idx {
		target := a.Idx[i]
		j := lo + sort.Search(len(b.Idx)-lo, func(k int) bool { return b.Idx[lo+k] >= target })
		if j == len(b.Idx) {
			break
		}
		if b.Idx[j] == target {
			s += float64(a.Val[i]) * float64(b.Val[j])
			j++
		}
		lo = j
	}
	return s
}

// CosineDistance is the non-metric cosine dissimilarity
//
//	d(x, y) = 1 - <x,y> / (|x| |y|)
//
// over sparse vectors, used for the Wiki-sparse experiments. It is symmetric
// but violates the triangle inequality (its monotone transform, the angular
// distance, is a metric — see §3.5 of the paper).
type CosineDistance struct{}

// Distance returns the cosine dissimilarity between data and query.
// Vectors with zero norm are at distance 1 from everything (no direction).
func (CosineDistance) Distance(data, query SparseVector) float64 {
	if data.Norm == 0 || query.Norm == 0 {
		return 1
	}
	cos := SparseDot(data, query) / (data.Norm * query.Norm)
	// Guard against floating-point drift outside [-1, 1].
	if cos > 1 {
		cos = 1
	} else if cos < -1 {
		cos = -1
	}
	return 1 - cos
}

// Name implements Space.
func (CosineDistance) Name() string { return "cosine" }

// Properties implements Space: symmetric but not a metric.
func (CosineDistance) Properties() Properties { return Properties{Symmetric: true} }
