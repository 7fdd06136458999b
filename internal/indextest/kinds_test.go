package indextest

import (
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/lsh"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/vptree"
)

// The kind matrices: one deterministic builder per registered index kind,
// shared by the conformance and roundtrip test drivers, and one full-recall
// builder per kind, shared by the identity suites. Builders fix every
// seed, so repeated builds are identical at any GOMAXPROCS (the goldens,
// ParamsMatchDedicated and TestBuildsArePure compare across builds). The
// corpora and the seed live in corpus.go.

// kindCase names one index kind under test, generically over object type.
type kindCase[T any] struct {
	kind  string
	build Builder[T]
}

// genericKinds lists every kind constructible over an arbitrary space; the
// dense-vector driver appends mplsh.
func genericKinds[T any](sp space.Space[T], db []T) []kindCase[T] {
	return []kindCase[T]{
		{"brute-force-filt", func() (index.Index[T], error) {
			return core.NewBruteForceFilter(sp, db, core.BruteForceOptions{NumPivots: 32, Seed: kindSeed})
		}},
		{"brute-force-filt-bin", func() (index.Index[T], error) {
			return core.NewBinFilter(sp, db, core.BinFilterOptions{NumPivots: 64, Seed: kindSeed})
		}},
		{"brute-force-filt-quant", func() (index.Index[T], error) {
			return core.NewQuantFilter(sp, db, core.QuantFilterOptions{NumPivots: 32, PrefixLen: 16, Seed: kindSeed})
		}},
		{"distvec-filt", func() (index.Index[T], error) {
			return core.NewDistVecFilter(sp, db, core.BruteForceOptions{NumPivots: 32, Seed: kindSeed})
		}},
		{"pp-index", func() (index.Index[T], error) {
			return core.NewPPIndex(sp, db, core.PPIndexOptions{NumPivots: 16, PrefixLen: 4, Copies: 2, Seed: kindSeed})
		}},
		{"mi-file", func() (index.Index[T], error) {
			return core.NewMIFile(sp, db, core.MIFileOptions{
				NumPivots: 32, NumPivotIndex: 16, NumPivotSearch: 8, MaxPosDiff: 10, Seed: kindSeed,
			})
		}},
		{"napp", func() (index.Index[T], error) {
			return core.NewNAPP(sp, db, core.NAPPOptions{
				NumPivots: 64, NumPivotIndex: 16, MinShared: 1, Seed: kindSeed,
			})
		}},
		{"omedrank", func() (index.Index[T], error) {
			return core.NewOMEDRANK(sp, db, core.OMEDRANKOptions{NumVoters: 6, Seed: kindSeed})
		}},
		{"perm-vptree", func() (index.Index[T], error) {
			return core.NewPermVPTree(sp, db, core.PermVPTreeOptions{NumPivots: 32, Seed: kindSeed})
		}},
		{"vptree", func() (index.Index[T], error) {
			return vptree.New(sp, db, vptree.Options{BucketSize: 8, Seed: kindSeed})
		}},
		{"sw-graph", func() (index.Index[T], error) {
			return knngraph.NewSW(sp, db, knngraph.Options{NN: 6, Seed: kindSeed})
		}},
		{"nndescent-graph", func() (index.Index[T], error) {
			return knngraph.NewNNDescent(sp, db, knngraph.Options{NN: 6, Seed: kindSeed})
		}},
		{"seqscan", func() (index.Index[T], error) {
			return seqscan.New(sp, db), nil
		}},
	}
}

// denseKinds is the full matrix over dense []float32 vectors under L2,
// including the L2-only multi-probe LSH baseline.
func denseKinds(sp space.Space[[]float32], db [][]float32) []kindCase[[]float32] {
	kinds := genericKinds[[]float32](sp, db)
	kinds = append(kinds, kindCase[[]float32]{"mplsh", func() (index.Index[[]float32], error) {
		m, err := lsh.New(db, lsh.Options{Tables: 4, Hashes: 8, Seed: kindSeed})
		if err != nil {
			return nil, err
		}
		return index.Index[[]float32](m), nil
	}})
	return kinds
}

// fullRecallKind builds one index kind over any corpus subset with every
// candidate budget open, so it answers the subset's true top-k. The identity
// suites (sharded_test.go, tiered_test.go) compare such an index against an
// exact reference: with the budget open, the only thing that can separate
// the two answers is the machinery under test — partition, id translation
// and merge, or the mutable tier's memtable, seals and tombstones.
type fullRecallKind[T any] struct {
	kind  string
	build func(data []T) (index.Index[T], error)
}

// fullRecallKinds is the full-recall matrix of every kind constructible over
// any space: filter methods refine every candidate (Gamma 1), NAPP and the
// MI-file index and search every pivot, the VP-trees run with a vanishing
// pruning stretch, and the graphs search with an exhaustive frontier.
func fullRecallKinds[T any](sp space.Space[T]) []fullRecallKind[T] {
	return []fullRecallKind[T]{
		{"seqscan", func(data []T) (index.Index[T], error) {
			return seqscan.New(sp, data), nil
		}},
		{"vptree", func(data []T) (index.Index[T], error) {
			// A vanishing stretch disables pruning entirely, which keeps
			// the tree exact under non-metric spaces (KL) too.
			return vptree.New(sp, data, vptree.Options{BucketSize: 8, AlphaLeft: 1e-12, AlphaRight: 1e-12, Seed: kindSeed})
		}},
		{"brute-force-filt", func(data []T) (index.Index[T], error) {
			return core.NewBruteForceFilter(sp, data, core.BruteForceOptions{NumPivots: 16, Gamma: 1, Seed: kindSeed})
		}},
		{"brute-force-filt-bin", func(data []T) (index.Index[T], error) {
			return core.NewBinFilter(sp, data, core.BinFilterOptions{NumPivots: 32, Gamma: 1, Seed: kindSeed})
		}},
		{"brute-force-filt-quant", func(data []T) (index.Index[T], error) {
			// Gamma=1 refines every point: the quantized prefix reorders
			// candidate evaluation but cannot change the returned answers.
			return core.NewQuantFilter(sp, data, core.QuantFilterOptions{NumPivots: 32, PrefixLen: 16, Gamma: 1, Seed: kindSeed})
		}},
		{"distvec-filt", func(data []T) (index.Index[T], error) {
			return core.NewDistVecFilter(sp, data, core.BruteForceOptions{NumPivots: 16, Gamma: 1, Seed: kindSeed})
		}},
		{"pp-index", func(data []T) (index.Index[T], error) {
			return core.NewPPIndex(sp, data, core.PPIndexOptions{NumPivots: 16, PrefixLen: 4, Copies: 2, Gamma: 1, Seed: kindSeed})
		}},
		{"mi-file", func(data []T) (index.Index[T], error) {
			// Index and search every pivot with no position filter: the
			// candidate set is the whole corpus.
			return core.NewMIFile(sp, data, core.MIFileOptions{
				NumPivots: 16, NumPivotIndex: 16, NumPivotSearch: 16, Gamma: 1, Seed: kindSeed,
			})
		}},
		{"napp", func(data []T) (index.Index[T], error) {
			// Every point posts every pivot; MinShared 1 admits the whole
			// corpus as candidates.
			return core.NewNAPP(sp, data, core.NAPPOptions{
				NumPivots: 32, NumPivotIndex: 32, MinShared: 1, Seed: kindSeed,
			})
		}},
		{"omedrank", func(data []T) (index.Index[T], error) {
			// Gamma 1 keeps aggregating until every point crosses the
			// quorum (each voter ranks the whole corpus, so all do).
			return core.NewOMEDRANK(sp, data, core.OMEDRANKOptions{NumVoters: 6, Gamma: 1, Seed: kindSeed})
		}},
		{"perm-vptree", func(data []T) (index.Index[T], error) {
			return core.NewPermVPTree(sp, data, core.PermVPTreeOptions{NumPivots: 16, Gamma: 1, Seed: kindSeed})
		}},
		{"sw-graph", func(data []T) (index.Index[T], error) {
			// EfSearch = n makes the best-first search exhaust the
			// connected component, i.e. exact on a connected graph.
			return knngraph.NewSW(sp, data, knngraph.Options{
				NN: 10, EfSearch: len(data), InitAttempts: 4, Seed: kindSeed,
			})
		}},
		{"nndescent-graph", func(data []T) (index.Index[T], error) {
			return knngraph.NewNNDescent(sp, data, knngraph.Options{
				NN: 10, EfSearch: len(data), InitAttempts: 4, Seed: kindSeed,
			})
		}},
	}
}

// denseFullRecallKinds appends mplsh: one table, one hash, a quantization
// width far above any projection value — every point lands in one bucket.
func denseFullRecallKinds(sp space.Space[[]float32]) []fullRecallKind[[]float32] {
	kinds := fullRecallKinds[[]float32](sp)
	return append(kinds, fullRecallKind[[]float32]{"mplsh", func(data [][]float32) (index.Index[[]float32], error) {
		m, err := lsh.New(data, lsh.Options{Tables: 1, Hashes: 1, Width: 1e12, Seed: kindSeed})
		if err != nil {
			return nil, err
		}
		return index.Index[[]float32](m), nil
	}})
}

// klFullRecallKinds is the representative subset run under the asymmetric
// KL divergence: the dense corpus covers every kind, this one exercises
// left-query asymmetry.
func klFullRecallKinds() []fullRecallKind[space.Histogram] {
	keep := map[string]bool{"seqscan": true, "vptree": true, "napp": true, "sw-graph": true, "mi-file": true}
	var kinds []fullRecallKind[space.Histogram]
	for _, kb := range fullRecallKinds[space.Histogram](space.KLDivergence{}) {
		if keep[kb.kind] {
			kinds = append(kinds, kb)
		}
	}
	return kinds
}
