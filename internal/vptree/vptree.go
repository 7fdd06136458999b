// Package vptree implements the vantage-point tree (Yianilos 1993, Uhlmann
// 1991), one of the two strongest baselines in the paper's evaluation. The
// tree recursively partitions the space by the median distance to a randomly
// chosen pivot; k-NN search is simulated as a range search with a shrinking
// radius (§3.2).
//
// For metric spaces the triangle inequality gives exact pruning. For generic
// (non-metric) spaces the paper replaces it with a *polynomial pruner*: with
// query radius r, pivot distance dq and partition radius R,
//
//	query in left  partition: prune right when (R - dq)^beta * alphaLeft  > r
//	query in right partition: prune left  when (dq - R)^beta * alphaRight > r
//
// alpha > 1 prunes more aggressively (faster, lower recall); Tune finds
// alpha for a target recall by a shrinking grid search, as in the paper.
package vptree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/space"
	"repro/internal/topk"
)

// Options configures tree construction and pruning.
type Options struct {
	// BucketSize is the leaf capacity b; partitioning stops below it.
	// Default 32.
	BucketSize int
	// AlphaLeft and AlphaRight stretch the pruning rule (see package
	// doc). Defaults 1, which is exact for metric spaces.
	AlphaLeft, AlphaRight float64
	// Beta is the polynomial exponent of the pruner. The paper uses 2
	// for the KL-divergence and 1 elsewhere. Default 1.
	Beta float64
	// Seed drives random pivot selection. Trees built with equal seeds
	// over equal data are identical.
	Seed int64
}

func (o *Options) defaults() {
	if o.BucketSize <= 0 {
		o.BucketSize = 32
	}
	if o.AlphaLeft <= 0 {
		o.AlphaLeft = 1
	}
	if o.AlphaRight <= 0 {
		o.AlphaRight = 1
	}
	if o.Beta <= 0 {
		o.Beta = 1
	}
}

// Tree is a vantage-point tree over a fixed data set.
type Tree[T any] struct {
	sp    space.Space[T]
	data  []T
	opts  Options
	root  *node
	nodes int
	// symmetric caches sp.Properties().Symmetric. For non-symmetric
	// distances (KL) the partition balls are built from d(x, pivot), so
	// pruning decisions must use d(query, pivot) — the same direction —
	// even though answers are scored with left queries d(x, query).
	symmetric bool
	// buildDist counts distance computations performed at build time.
	buildDist int64
	// Pooled recycles per-query traversal state (frontier stack + top-k
	// queue) across queries, so a warm SearchAppend allocates nothing.
	index.Pooled[T, searchScratch]
}

type node struct {
	pivot  uint32
	radius float64
	left   *node // d(x, pivot) <= radius
	right  *node // d(x, pivot) >  radius
	bucket []uint32
}

// New builds a VP-tree over data. The data slice is retained, not copied.
func New[T any](sp space.Space[T], data []T, opts Options) (*Tree[T], error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("vptree: empty data set")
	}
	opts.defaults()
	t := &Tree[T]{sp: sp, data: data, opts: opts, symmetric: sp.Properties().Symmetric}
	t.Bind(t.search)
	r := rand.New(rand.NewSource(opts.Seed))
	ids := make([]uint32, len(data))
	for i := range ids {
		ids[i] = uint32(i)
	}
	var sc space.Scratch
	t.root = t.build(r, &sc, ids)
	return t, nil
}

// build recursively constructs the subtree over ids, consuming the slice. It
// measures each node's ids against the node's pivot in one space.Many call on
// sc.
func (t *Tree[T]) build(r *rand.Rand, sc *space.Scratch, ids []uint32) *node {
	t.nodes++
	if len(ids) <= t.opts.BucketSize {
		// Leaf: keep points in one contiguous chunk (the paper notes
		// this halves retrieval time for cheap distances).
		b := make([]uint32, len(ids))
		copy(b, ids)
		return &node{bucket: b}
	}
	// Random pivot; move it out of the candidate set.
	pi := r.Intn(len(ids))
	ids[pi], ids[len(ids)-1] = ids[len(ids)-1], ids[pi]
	pivot := ids[len(ids)-1]
	rest := ids[:len(ids)-1]

	dists := make([]float64, len(rest))
	space.Many(t.sp, sc, dists, t.data[pivot], t.data, rest)
	t.buildDist += int64(len(rest))
	radius := median(dists)

	// Partition rest by d <= radius in one stable pass: median sorted a
	// copy, so dists still lines up with rest.
	left := make([]uint32, 0, len(rest)/2+1)
	right := make([]uint32, 0, len(rest)/2+1)
	for i, id := range rest {
		if dists[i] <= radius {
			left = append(left, id)
		} else {
			right = append(right, id)
		}
	}
	if len(right) == 0 {
		// Degenerate split (many duplicates): avoid infinite recursion
		// by turning the whole partition, pivot included, into a leaf.
		b := make([]uint32, 0, len(rest)+1)
		b = append(b, rest...)
		b = append(b, pivot)
		return &node{bucket: b}
	}
	n := &node{pivot: pivot, radius: radius}
	n.left = t.build(r, sc, left)
	n.right = t.build(r, sc, right)
	return n
}

// median returns the lower median of dists, leaving dists as it is.
func median(dists []float64) float64 {
	cp := make([]float64, len(dists))
	copy(cp, dists)
	sort.Float64s(cp)
	return cp[(len(cp)-1)/2]
}

// Name implements index.Index.
func (t *Tree[T]) Name() string { return "vptree" }

// Stats implements index.Sized.
func (t *Tree[T]) Stats() index.Stats {
	// Each internal node: pivot + radius + two pointers; leaves hold id
	// slices. A coarse but honest estimate.
	return index.Stats{
		Bytes:          int64(t.nodes)*40 + int64(len(t.data))*4,
		BuildDistances: t.buildDist,
	}
}

// searchScratch is the reusable per-query traversal state: the explicit
// frontier stack standing in for the old recursion, the bounded top-k
// queue and the bulk-distance scratch the leaves are measured on. The zero
// value is ready; every buffer grows to its high-water mark once and is
// reused query after query. Trees do not need an epoch-stamped visited arena
// (unlike the graph traversals): a tree visits each node at most once by
// construction.
type searchScratch struct {
	stack []frame
	q     topk.Queue
	sp    space.Scratch
}

// frame is one deferred traversal step. A fresh frame (revisit false)
// expands the node; a revisit frame re-evaluates the pruning rule for the
// node's far child *after* the near subtree has been fully searched, with
// the then-current queue bound — exactly the order and pruning decisions of
// the recursive formulation.
type frame struct {
	n       *node
	dq      float64 // query-pivot distance in pruning direction (revisit only)
	revisit bool
}

// search returns the (approximate, when alpha > 1 or the space is
// non-metric) k nearest neighbors of query. The pruning stretch factors are
// the query's (opts.Params.AlphaLeft/AlphaRight) when set, else the tree's
// build-time ones. The iterative schedule replays the recursion exactly: a
// node's near child (and its whole subtree) is processed before the node's
// revisit frame decides — with the updated bound — whether the far child is
// pruned. A leaf's bucket is measured in one space.Closest call, a node's
// pivot on its own. A tree has no filter stage: every distance it evaluates
// is an exact one, attributed to the refine stage when the query is traced.
func (t *Tree[T]) search(s *searchScratch, dst []topk.Neighbor, query T, opts index.Options) []topk.Neighbor {
	tr := opts.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	evals := 0
	alphaLeft := cmp.Or(opts.Params.AlphaLeft, t.opts.AlphaLeft)
	alphaRight := cmp.Or(opts.Params.AlphaRight, t.opts.AlphaRight)
	s.q.Reset(opts.K)
	s.stack = append(s.stack[:0], frame{n: t.root})
	for len(s.stack) > 0 {
		f := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		n := f.n
		if n == nil {
			continue
		}
		if f.revisit {
			r := math.Inf(1)
			if bound, ok := s.q.Bound(); ok {
				r = bound
			}
			if f.dq <= n.radius {
				if !t.prune(n.radius-f.dq, alphaLeft, r) {
					s.stack = append(s.stack, frame{n: n.right})
				}
			} else {
				if !t.prune(f.dq-n.radius, alphaRight, r) {
					s.stack = append(s.stack, frame{n: n.left})
				}
			}
			continue
		}
		if n.bucket != nil {
			evals += space.Closest(t.sp, &s.sp, &s.q, query, t.data, nil, n.bucket)
			continue
		}
		dq := t.sp.Distance(t.data[n.pivot], query)
		evals++
		s.q.Push(n.pivot, dq)
		// Pruning compares against ball radii built from d(x, pivot); for
		// asymmetric spaces measure the query in the same direction.
		if !t.symmetric {
			dq = t.sp.Distance(query, t.data[n.pivot])
			evals++
		}
		// Near child first; the revisit frame beneath it on the stack
		// fires once the near subtree is exhausted.
		s.stack = append(s.stack, frame{n: n, dq: dq, revisit: true})
		if dq <= n.radius {
			s.stack = append(s.stack, frame{n: n.left})
		} else {
			s.stack = append(s.stack, frame{n: n.right})
		}
	}
	if tr != nil {
		tr.RefineDistances += int64(evals)
		obs.AddSince(&tr.RefineNs, t0)
	}
	return s.q.AppendResults(dst)
}

// prune reports whether the far partition can be skipped: diff is how deep
// inside its own partition the query sits (radius - dq when the query is
// inside the ball, dq - radius when outside), alpha that side's stretch.
func (t *Tree[T]) prune(diff, alpha, r float64) bool {
	if diff <= 0 {
		return false
	}
	return stretch(diff, t.opts.Beta)*alpha > r
}

func stretch(diff, beta float64) float64 {
	if beta == 1 {
		return diff
	}
	if beta == 2 {
		return diff * diff
	}
	return math.Pow(diff, beta)
}
