package core

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/permutation"
	"repro/internal/space"
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
	data   []T
	pivots *permutation.Pivots[T]
	perms  [][]int32
	tree   *vptree.Tree[[]int32]
	opts   PermVPTreeOptions
	pipeline[T, permutation.Scratch]
}

// NewPermVPTree computes all permutations and builds a VP-tree over them.
func NewPermVPTree[T any](sp space.Space[T], data []T, opts PermVPTreeOptions) (*PermVPTree[T], error) {
	opts.defaults()
	pv, err := samplePivots(sp, data, &opts.NumPivots, opts.Seed)
	if err != nil {
		return nil, err
	}
	m := pv.M()
	flat := perPoint(data, m, pv.PermutationWith)
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
	pt := &PermVPTree[T]{data: data, pivots: pv, perms: perms, tree: tree, opts: opts}
	pt.bind(pt, sp, pt.data, opts.Gamma)
	return pt, nil
}

// Name implements index.Index.
func (pt *PermVPTree[T]) Name() string { return "perm-vptree" }

func (pt *PermVPTree[T]) size() (int64, int) {
	m := pt.pivots.M()
	return pt.tree.Stats().Bytes + int64(len(pt.data))*int64(m)*4, m
}

// filter is g-NN search in the permutation space. The candidate list the
// VP-tree returns is this path's one allocation besides the result, outside
// the zero-alloc guards.
func (pt *PermVPTree[T]) filter(s *permutation.Scratch, query T, g int, _ index.Params) (candidates, int, int) {
	cands := pt.tree.Search(pt.pivots.PermutationWith(s, query), g)
	return candidates{scored: cands}, len(cands), s.Measured
}
