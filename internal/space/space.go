// Package space defines the distance-space abstraction shared by every index
// in this repository and implements all distance functions used in the
// paper's evaluation (Table 1): L2 and L1 over dense vectors, cosine distance
// over sparse vectors, KL- and JS-divergence over topic histograms,
// normalized Levenshtein over byte strings, and the Signature Quadratic Form
// Distance (SQFD) over image signatures.
//
// Argument-order convention: for non-symmetric distances (KL-divergence) the
// paper evaluates "left queries", where the data point is the first (left)
// argument of d(x, y). Every index in this repository therefore calls
// Distance(dataPoint, query).
package space

import "sync/atomic"

// Properties describes which axioms a distance promises to satisfy. Indexes
// use it to pick pruning rules: the VP-tree applies the triangle inequality
// only when Metric is set, and falls back to the polynomial pruner otherwise.
type Properties struct {
	// Metric is set when the distance is non-negative, symmetric, zero
	// only on identical points, and satisfies the triangle inequality.
	Metric bool
	// Symmetric is set when d(x,y) == d(y,x) for all x, y. Every metric
	// is symmetric; the converse does not hold (e.g. JS-divergence).
	Symmetric bool
}

// Space is a (possibly non-metric) dissimilarity over objects of type T.
// Implementations must be safe for concurrent use: all index builders in this
// repository compute distances from multiple goroutines.
type Space[T any] interface {
	// Distance returns the dissimilarity between a data point (first
	// argument) and a query (second argument). It is small for similar
	// objects, zero for identical ones, and never negative.
	Distance(data, query T) float64
	// Name identifies the space in reports, e.g. "l2" or "kldiv".
	Name() string
	// Properties reports which distance axioms hold.
	Properties() Properties
}

// Counter wraps a Space and counts distance evaluations. Tests use it to
// verify pruning actually prunes.
type Counter[T any] struct {
	inner Space[T]
	n     atomic.Int64
}

// NewCounter returns a counting wrapper around sp.
func NewCounter[T any](sp Space[T]) *Counter[T] {
	return &Counter[T]{inner: sp}
}

// Distance delegates to the wrapped space and increments the counter.
func (c *Counter[T]) Distance(data, query T) float64 {
	c.n.Add(1)
	return c.inner.Distance(data, query)
}

// Name returns the wrapped space's name.
func (c *Counter[T]) Name() string { return c.inner.Name() }

// Properties returns the wrapped space's properties.
func (c *Counter[T]) Properties() Properties { return c.inner.Properties() }

// Count returns the number of Distance calls since the last Reset.
func (c *Counter[T]) Count() int64 { return c.n.Load() }

// Reset zeroes the call counter.
func (c *Counter[T]) Reset() { c.n.Store(0) }
