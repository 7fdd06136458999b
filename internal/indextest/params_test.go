package indextest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/lsh"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vptree"
)

// TestParamsMatchDedicated runs the per-query-params property over every
// kind that has query-time knobs: the shared builder uses the kind's
// defaults, the dedicated one bakes the params into its build options.
func TestParamsMatchDedicated(t *testing.T) {
	db, queries := denseCorpus()
	var sp space.Space[[]float32] = space.L2{}
	type build = Builder[[]float32]
	bf := func(gamma float64) build {
		return func() (index.Index[[]float32], error) {
			return core.NewBruteForceFilter(sp, db, core.BruteForceOptions{NumPivots: 32, Gamma: gamma, Seed: kindSeed})
		}
	}
	bin := func(gamma float64) build {
		return func() (index.Index[[]float32], error) {
			return core.NewBinFilter(sp, db, core.BinFilterOptions{NumPivots: 64, Gamma: gamma, Seed: kindSeed})
		}
	}
	quant := func(gamma float64) build {
		return func() (index.Index[[]float32], error) {
			return core.NewQuantFilter(sp, db, core.QuantFilterOptions{NumPivots: 32, PrefixLen: 16, Gamma: gamma, Seed: kindSeed})
		}
	}
	distvec := func(gamma float64) build {
		return func() (index.Index[[]float32], error) {
			return core.NewDistVecFilter(sp, db, core.BruteForceOptions{NumPivots: 32, Gamma: gamma, Seed: kindSeed})
		}
	}
	pp := func(gamma float64) build {
		return func() (index.Index[[]float32], error) {
			return core.NewPPIndex(sp, db, core.PPIndexOptions{NumPivots: 16, PrefixLen: 4, Copies: 2, Gamma: gamma, Seed: kindSeed})
		}
	}
	mi := func(gamma float64) build {
		return func() (index.Index[[]float32], error) {
			return core.NewMIFile(sp, db, core.MIFileOptions{
				NumPivots: 32, NumPivotIndex: 16, NumPivotSearch: 8, MaxPosDiff: 10, Gamma: gamma, Seed: kindSeed,
			})
		}
	}
	omed := func(gamma float64) build {
		return func() (index.Index[[]float32], error) {
			return core.NewOMEDRANK(sp, db, core.OMEDRANKOptions{NumVoters: 6, Gamma: gamma, Seed: kindSeed})
		}
	}
	pvt := func(gamma float64) build {
		return func() (index.Index[[]float32], error) {
			return core.NewPermVPTree(sp, db, core.PermVPTreeOptions{NumPivots: 32, Gamma: gamma, Seed: kindSeed})
		}
	}
	napp := func(t int) build {
		return func() (index.Index[[]float32], error) {
			return core.NewNAPP(sp, db, core.NAPPOptions{NumPivots: 64, NumPivotIndex: 16, MinShared: t, Seed: kindSeed})
		}
	}
	vpt := func(left, right float64) build {
		return func() (index.Index[[]float32], error) {
			return vptree.New(sp, db, vptree.Options{BucketSize: 8, AlphaLeft: left, AlphaRight: right, Seed: kindSeed})
		}
	}
	sw := func(att, ef int) build {
		return func() (index.Index[[]float32], error) {
			return knngraph.NewSW(sp, db, knngraph.Options{NN: 6, InitAttempts: att, EfSearch: ef, Seed: kindSeed})
		}
	}
	nnd := func(att, ef int) build {
		return func() (index.Index[[]float32], error) {
			return knngraph.NewNNDescent(sp, db, knngraph.Options{NN: 6, InitAttempts: att, EfSearch: ef, Seed: kindSeed})
		}
	}
	mplsh := func(probes int) build {
		return func() (index.Index[[]float32], error) {
			return lsh.New(db, lsh.Options{Tables: 4, Hashes: 8, Probes: probes, Seed: kindSeed})
		}
	}
	nothing := func() (index.Index[[]float32], error) { return answersNothing{}, nil }
	for _, tc := range []struct {
		kind              string
		params            index.Params
		shared, dedicated build
	}{
		{"brute-force-filt", index.Params{Gamma: 0.2}, bf(0), bf(0.2)},
		{"brute-force-filt-bin", index.Params{Gamma: 0.2}, bin(0), bin(0.2)},
		{"brute-force-filt-quant", index.Params{Gamma: 0.2}, quant(0), quant(0.2)},
		{"distvec-filt", index.Params{Gamma: 0.2}, distvec(0), distvec(0.2)},
		{"pp-index/gamma=0.2", index.Params{Gamma: 0.2}, pp(0), pp(0.2)},
		{"mi-file/gamma=0.2", index.Params{Gamma: 0.2}, mi(0), mi(0.2)},
		{"omedrank/gamma=0.2", index.Params{Gamma: 0.2}, omed(0), omed(0.2)},
		{"perm-vptree/gamma=0.2", index.Params{Gamma: 0.2}, pvt(0), pvt(0.2)},
		{"napp", index.Params{MinShared: 5}, napp(1), napp(5)},
		// t has no upper bound on the wire. At t = ms (16 here) only points
		// sharing every scanned pivot survive; above it nothing can, whatever
		// the width of the counter the filter compares against.
		{"napp/t=ms", index.Params{MinShared: 16}, napp(1), napp(16)},
		{"napp/t=ms+1", index.Params{MinShared: 17}, napp(1), nothing},
		{"napp/t=256", index.Params{MinShared: 256}, napp(1), nothing},
		{"napp/t=1<<20", index.Params{MinShared: 1 << 20}, napp(1), nothing},
		{"vptree", index.Params{AlphaLeft: 3, AlphaRight: 3}, vpt(0, 0), vpt(3, 3)},
		{"vptree/one-side", index.Params{AlphaRight: 4}, vpt(0, 0), vpt(0, 4)},
		{"sw-graph", index.Params{InitAttempts: 1, EfSearch: 6}, sw(3, 40), sw(1, 6)},
		{"sw-graph/ef-only", index.Params{EfSearch: 6}, sw(1, 40), sw(1, 6)},
		{"nndescent-graph", index.Params{InitAttempts: 1, EfSearch: 6}, nnd(3, 40), nnd(1, 6)},
		{"mplsh", index.Params{Probes: 2}, mplsh(40), mplsh(2)},
		{"mplsh/no-probes", index.Params{Probes: -1}, mplsh(40), mplsh(-1)},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			ParamsMatchDedicated(t, queries, tc.params, tc.shared, tc.dedicated)
		})
	}
}

// answersNothing is the dedicated twin of a filter asked for more than it can
// count: an index whose every answer is empty.
type answersNothing struct{}

func (answersNothing) Search([]float32, int) []topk.Neighbor { return nil }
func (answersNothing) SearchAppend(dst []topk.Neighbor, _ []float32, _ index.Options) []topk.Neighbor {
	return dst
}
func (answersNothing) Name() string { return "nothing" }
