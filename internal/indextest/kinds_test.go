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

// The kind matrix: one deterministic builder per registered index kind,
// shared by the conformance and roundtrip test drivers. Builders fix every
// seed, so repeated builds are identical at any GOMAXPROCS (the goldens,
// ParamsMatchDedicated and TestBuildsArePure compare across builds). The
// corpus split sizes and seed live in corpus.go, shared with external
// suites.

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

// denseCorpus, dnaCorpus and histoCorpus alias the exported corpora of
// corpus.go under this package's historical names.
func denseCorpus() (db, queries [][]float32)       { return DenseCorpus() }
func dnaCorpus() (db, queries [][]byte)            { return DNACorpus() }
func histoCorpus() (db, queries []space.Histogram) { return HistoCorpus() }
