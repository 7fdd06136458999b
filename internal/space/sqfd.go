package space

import (
	"fmt"
	"math"
)

// Signature is a feature signature in the sense of Beecks: a small set of
// cluster representatives (centroids in a low-dimensional feature space)
// with associated weights. In the paper's ImageNet experiment each image
// yields 20 clusters of 7-dimensional pixel features (3 color, 2 position,
// 2 texture dimensions), each cluster represented by its centroid and its
// fraction of the sampled pixels.
type Signature struct {
	Weights   []float32 // one per cluster, non-negative, normalized to sum 1
	Centroids []float32 // flattened len(Weights) x Dim matrix, row-major
	Dim       int       // dimensionality of each centroid

	// self is selfTerm(s): the part of every SQFD involving s that s alone
	// determines. NewSignature fills it in; it is positive for any valid
	// signature, so zero marks a value assembled field by field, for which
	// SQFD recomputes the term on each call.
	self float64
}

// NewSignature validates and normalizes a signature. centroids must hold
// len(weights)*dim values.
func NewSignature(weights, centroids []float32, dim int) (Signature, error) {
	if dim <= 0 {
		return Signature{}, fmt.Errorf("space: signature dim must be positive, got %d", dim)
	}
	if len(centroids) != len(weights)*dim {
		return Signature{}, fmt.Errorf("space: signature has %d weights and dim %d but %d centroid values",
			len(weights), dim, len(centroids))
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(float64(w)) {
			return Signature{}, fmt.Errorf("space: negative or NaN weight at cluster %d", i)
		}
		sum += float64(w)
	}
	if sum == 0 {
		return Signature{}, fmt.Errorf("space: signature weights sum to zero")
	}
	ws := make([]float32, len(weights))
	for i, w := range weights {
		ws[i] = float32(float64(w) / sum)
	}
	cs := make([]float32, len(centroids))
	copy(cs, centroids)
	s := Signature{Weights: ws, Centroids: cs, Dim: dim}
	s.self = selfTerm(s)
	return s, nil
}

// Clusters returns the number of cluster representatives.
func (s Signature) Clusters() int { return len(s.Weights) }

// Centroid returns the i-th centroid as a slice view into the signature.
func (s Signature) Centroid(i int) []float32 {
	return s.Centroids[i*s.Dim : (i+1)*s.Dim]
}

// SQFD is the Signature Quadratic Form Distance
//
//	SQFD(x, y) = sqrt( w^T A w ),  w = (w_x | -w_y)
//
// where A[i][j] applies a heuristic similarity to pairs of cluster
// representatives; following Beecks we use sim(r, s) = 1 / (1 + L2(r, s)).
//
// The cross block of the similarity matrix is recomputed for every pair (the
// two diagonal blocks depend on one signature each and are summed once, in
// NewSignature), so a single distance costs O(n*m*Dim) work — nearly two
// orders of magnitude more than a 128-dimensional L2, matching the cost model
// in Table 1 of the paper. SQFD is a true metric on signatures with
// positive-definite similarity kernels.
type SQFD struct{}

// Distance returns the SQFD between two signatures. Signatures of different
// Dim panic, as they come from incompatible feature extractions.
func (SQFD) Distance(data, query Signature) float64 {
	if data.Dim != query.Dim {
		panic("space: SQFD over signatures of different dimensionality")
	}
	// Expanding w^T A w with w = (w_x | -w_y):
	//   sum_{i,j in x} wx_i wx_j sim(xi, xj)
	// + sum_{i,j in y} wy_i wy_j sim(yi, yj)
	// - 2 sum_{i in x, j in y} wx_i wy_j sim(xi, yj)
	s := data.selfSim() + query.selfSim() - 2*crossTerm(data, query, data.Dim)
	if s < 0 {
		s = 0 // round-off guard; the form is PSD for this kernel
	}
	return math.Sqrt(s)
}

func (s Signature) selfSim() float64 {
	if s.self != 0 {
		return s.self
	}
	return selfTerm(s)
}

func selfTerm(s Signature) float64 {
	n, dim := len(s.Weights), s.Dim
	var acc float64
	for i := 0; i < n; i++ {
		ci := s.Centroids[i*dim : (i+1)*dim]
		wi := float64(s.Weights[i])
		acc += wi * wi // sim(x,x) == 1
		for j := i + 1; j < n; j++ {
			cj := s.Centroids[j*dim : (j+1)*dim]
			acc += 2 * wi * float64(s.Weights[j]) * centroidSim(ci, cj)
		}
	}
	return acc
}

func crossTerm(a, b Signature, dim int) float64 {
	var acc float64
	for i := 0; i < len(a.Weights); i++ {
		ci := a.Centroids[i*dim : (i+1)*dim]
		wi := float64(a.Weights[i])
		for j := 0; j < len(b.Weights); j++ {
			cj := b.Centroids[j*dim : (j+1)*dim]
			acc += wi * float64(b.Weights[j]) * centroidSim(ci, cj)
		}
	}
	return acc
}

// centroidSim is the heuristic similarity between cluster representatives.
func centroidSim(a, b []float32) float64 {
	var d float64
	for k := range a {
		diff := float64(a[k]) - float64(b[k])
		d += diff * diff
	}
	return 1 / (1 + math.Sqrt(d))
}

// Name implements Space.
func (SQFD) Name() string { return "sqfd" }

// Properties implements Space: SQFD with a PSD kernel is a metric.
func (SQFD) Properties() Properties { return Properties{Metric: true, Symmetric: true} }
