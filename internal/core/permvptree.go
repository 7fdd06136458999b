package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/permutation"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vptree"
)

// PermVPTreeOptions configures NewPermVPTree.
type PermVPTreeOptions struct {
	// NumPivots is the permutation length m. Default 128.
	NumPivots int
	// Gamma is the candidate fraction retrieved from the permutation
	// space before refinement. Default 0.02.
	Gamma float64
	// Alpha stretches VP-tree pruning in the permutation space
	// (sqrt-rho is a metric, so 1 = exact permutation-space k-NN).
	// Default 1.
	Alpha float64
	// BucketSize is the VP-tree leaf capacity. Default 32.
	BucketSize int
	// Seed drives pivot sampling and tree construction.
	Seed int64
}

func (o *PermVPTreeOptions) defaults() {
	if o.NumPivots <= 0 {
		o.NumPivots = 128
	}
	if o.Gamma <= 0 {
		o.Gamma = 0.02
	}
	if o.Alpha <= 0 {
		o.Alpha = 1
	}
	if o.BucketSize <= 0 {
		o.BucketSize = 32
	}
}

// PermVPTree indexes the permutations themselves in a VP-tree, the approach
// of Figueroa & Fredriksson (§2.3): Spearman's rho is a monotone transform
// (squaring) of the Euclidean distance between rank vectors, so gamma-NN
// retrieval in the permutation space can use a metric tree over sqrt(rho)
// instead of a linear scan. The paper found this either slower than a
// VP-tree in the original space or slower than NAPP — reproduced in the
// ablation benches.
type PermVPTree[T any] struct {
	sp     space.Space[T]
	data   []T
	pivots *permutation.Pivots[T]
	perms  [][]int32
	tree   *vptree.Tree[[]int32]
	opts   PermVPTreeOptions
	index.Pooled[T, pvtScratch]
}

// pvtScratch is the per-query state of one permutation-VP-tree search: the
// query permutation buffers and the refine queue.
type pvtScratch struct {
	perm  permutation.Scratch
	queue topk.Queue
}

// NewPermVPTree computes all permutations and builds a VP-tree over them.
func NewPermVPTree[T any](sp space.Space[T], data []T, opts PermVPTreeOptions) (*PermVPTree[T], error) {
	opts.defaults()
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty data set")
	}
	if opts.NumPivots > len(data) {
		opts.NumPivots = len(data)
	}
	r := rand.New(rand.NewSource(opts.Seed))
	pv, err := permutation.Sample(r, sp, data, opts.NumPivots)
	if err != nil {
		return nil, fmt.Errorf("core: sampling pivots: %w", err)
	}
	flat := computePermutations(pv, data)
	m := pv.M()
	perms := make([][]int32, len(data))
	for i := range perms {
		perms[i] = flat[i*m : (i+1)*m]
	}
	tree, err := vptree.New[[]int32](permutation.RhoMetric{}, perms, vptree.Options{
		BucketSize: opts.BucketSize,
		AlphaLeft:  opts.Alpha,
		AlphaRight: opts.Alpha,
		Seed:       opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: building permutation VP-tree: %w", err)
	}
	pt := &PermVPTree[T]{sp: sp, data: data, pivots: pv, perms: perms, tree: tree, opts: opts}
	pt.Bind(pt.search)
	return pt, nil
}

// Name implements index.Index.
func (pt *PermVPTree[T]) Name() string { return "perm-vptree" }

// Stats implements index.Sized.
func (pt *PermVPTree[T]) Stats() index.Stats {
	ts := pt.tree.Stats()
	return index.Stats{
		Bytes:          ts.Bytes + int64(len(pt.data))*int64(pt.pivots.M())*4,
		BuildDistances: int64(len(pt.data)) * int64(pt.pivots.M()),
	}
}

// search is the index's one query path, run on pooled scratch by the
// embedded index.Pooled. The filter stage here includes the VP-tree
// traversal (whose returned candidate list is this path's one allocation
// besides the result, outside the zero-alloc guards).
func (pt *PermVPTree[T]) search(s *pvtScratch, dst []topk.Neighbor, query T, opts index.Options) []topk.Neighbor {
	k, tr := opts.K, opts.Trace
	if k <= 0 {
		return dst
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	qperm := pt.pivots.PermutationWith(&s.perm, query)
	g := gammaCount(pt.opts.Gamma, len(pt.data), k)
	cands := pt.tree.Search(qperm, g)
	if tr != nil {
		tr.FilterCandidates += int64(len(cands))
		obs.AddSince(&tr.FilterNs, t0)
	}
	return refineInto(pt.sp, pt.data, query, cands, k, &s.queue, dst, tr)
}
