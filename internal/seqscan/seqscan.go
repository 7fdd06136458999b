// Package seqscan implements exact k-NN search by sequential scan. It plays
// two roles in the reproduction: it computes ground-truth neighbors for
// recall measurements, and its single-thread query time is the baseline that
// "improvement in efficiency" (Figure 4, y-axis) is measured against, exactly
// as in §3.3 of the paper. A query is one space.Nearest call over every
// object: the exact k-nearest step the permutation methods refine their
// candidates with and the mutable tier (internal/lsm) scans its added
// objects with.
package seqscan

import (
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/space"
	"repro/internal/topk"
)

// Scanner performs exact k-NN search over a fixed slice of objects. Like
// every index it is immutable once built.
type Scanner[T any] struct {
	sp   space.Space[T]
	data []T
	index.Pooled[T, space.Scratch]
}

// New creates a scanner over data. The slice is retained, not copied; the
// caller must not mutate it afterwards.
func New[T any](sp space.Space[T], data []T) *Scanner[T] {
	s := &Scanner[T]{sp: sp, data: data}
	s.Bind(s.search)
	return s
}

// Name implements index.Index.
func (s *Scanner[T]) Name() string { return "seqscan" }

// search returns the exact k nearest neighbors of query, ordered by
// increasing distance. Data points are passed as the left argument of the
// distance (the paper's left-query convention). A sequential scan has no
// filter stage: every point is an exact distance evaluation, attributed to
// the refine stage.
func (s *Scanner[T]) search(st *space.Scratch, dst []topk.Neighbor, query T, opts index.Options) []topk.Neighbor {
	return space.Nearest(s.sp, st, dst, query, s.data, nil, st.Every(len(s.data)), opts.K, opts.Trace)
}

// SearchAll computes exact k-NN answers for a batch of queries using all
// CPUs. It exists for ground-truth generation, where the sequential
// single-query path would dominate experiment setup time.
func (s *Scanner[T]) SearchAll(queries []T, k int) [][]topk.Neighbor {
	out, _ := engine.SearchBatch[T](engine.Pool{}, s, queries, index.Options{K: k})
	return out
}
