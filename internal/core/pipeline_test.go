package core_test

// The pipeline contract, one table over the nine kinds: what every search
// owes its caller whatever the filter behind it is. The candidate and refine
// counts are the values of the hand-written search bodies this pipeline
// replaced, so a change to who counts what shows up here as a number.

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/space"
	"repro/internal/topk"
)

// checkContract drives idx through the contract over the held-out queries;
// wantFilter, wantRefine and wantPivots are the traced counts summed over
// them.
func checkContract[T any](t *testing.T, idx index.Index[T], err error, queries []T, wantFilter, wantRefine, wantPivots int64) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	const k = 10
	kept := []topk.Neighbor{{ID: 7, Dist: 1}}
	for _, none := range []int{0, -3} {
		if got := idx.SearchAppend(kept, queries[0], index.Options{K: none}); len(got) != 1 || &got[0] != &kept[0] {
			t.Errorf("k=%d: dst came back as %v, want it untouched", none, got)
		}
	}
	var tr obs.QueryTrace
	for i, q := range queries {
		plain := idx.SearchAppend(nil, q, index.Options{K: k})
		if traced := idx.SearchAppend(nil, q, index.Options{K: k, Trace: &tr}); !slices.Equal(traced, plain) {
			t.Errorf("query %d: traced answer %v != untraced %v", i, traced, plain)
		}
	}
	if tr.FilterCandidates != wantFilter || tr.RefineDistances != wantRefine || tr.PivotDistances != wantPivots {
		t.Errorf("counted %d filter candidates, %d refine and %d pivot distances, want %d, %d and %d",
			tr.FilterCandidates, tr.RefineDistances, tr.PivotDistances, wantFilter, wantRefine, wantPivots)
	}
	// A core kind has the three core stages and none of the tiered tree's.
	if tr.FilterNs <= 0 || tr.RefineNs <= 0 || tr.MergeNs <= 0 {
		t.Errorf("stage times filter=%d refine=%d merge=%d, want all three stamped", tr.FilterNs, tr.RefineNs, tr.MergeNs)
	}
	if core := (obs.QueryTrace{
		FilterCandidates: tr.FilterCandidates, RefineDistances: tr.RefineDistances, PivotDistances: tr.PivotDistances,
		FilterNs: tr.FilterNs, RefineNs: tr.RefineNs, MergeNs: tr.MergeNs,
	}); tr != core {
		t.Errorf("a core search stamped a stage it does not have: %+v", tr)
	}
}

func TestPipelineContract(t *testing.T) {
	const n, nq, seed = 600, 8, 7
	all := dataset.SIFT(seed, n+nq)
	db, qs := all[:n], all[n:]
	sp := sp32()
	dense := func(name string, wantFilter, wantRefine, wantPivots int64, build func() (index.Index[[]float32], error)) {
		t.Run(name, func(t *testing.T) {
			idx, err := build()
			checkContract(t, idx, err, qs, wantFilter, wantRefine, wantPivots)
		})
	}
	dense("brute-force-filt", 4800, 96, 256, func() (index.Index[[]float32], error) {
		return core.NewBruteForceFilter(sp, db, core.BruteForceOptions{NumPivots: 32, Seed: seed})
	})
	dense("brute-force-filt-bin", 4800, 96, 512, func() (index.Index[[]float32], error) {
		return core.NewBinFilter(sp, db, core.BinFilterOptions{NumPivots: 64, Seed: seed})
	})
	dense("brute-force-filt-quant", 4800, 96, 512, func() (index.Index[[]float32], error) {
		return core.NewQuantFilter(sp, db, core.QuantFilterOptions{NumPivots: 64, Seed: seed})
	})
	dense("brute-force-filt-quant-2words", 4800, 96, 512, func() (index.Index[[]float32], error) {
		return core.NewQuantFilter(sp, db, core.QuantFilterOptions{NumPivots: 64, PrefixLen: 24, Seed: seed})
	})
	dense("distvec-filt", 4800, 96, 256, func() (index.Index[[]float32], error) {
		return core.NewDistVecFilter(sp, db, core.BruteForceOptions{NumPivots: 32, Seed: seed})
	})
	dense("pp-index", 560, 560, 256, func() (index.Index[[]float32], error) {
		return core.NewPPIndex(sp, db, core.PPIndexOptions{NumPivots: 16, PrefixLen: 4, Copies: 2, Seed: seed})
	})
	dense("mi-file", 4772, 96, 256, func() (index.Index[[]float32], error) {
		return core.NewMIFile(sp, db, core.MIFileOptions{NumPivots: 32, NumPivotIndex: 16, NumPivotSearch: 8, MaxPosDiff: 10, Seed: seed})
	})
	dense("napp", 4520, 4520, 512, func() (index.Index[[]float32], error) {
		return core.NewNAPP(sp, db, core.NAPPOptions{NumPivots: 64, NumPivotIndex: 16, MinShared: 2, Seed: seed})
	})
	dense("napp-capped", 4741, 320, 512, func() (index.Index[[]float32], error) {
		return core.NewNAPP(sp, db, core.NAPPOptions{NumPivots: 64, NumPivotIndex: 16, MinShared: 1, MaxCandidates: 40, Seed: seed})
	})
	dense("omedrank", 80, 80, 48, func() (index.Index[[]float32], error) {
		return core.NewOMEDRANK(sp, db, core.OMEDRANKOptions{NumVoters: 6, Seed: seed})
	})
	dense("perm-vptree", 96, 96, 256, func() (index.Index[[]float32], error) {
		return core.NewPermVPTree(sp, db, core.PermVPTreeOptions{NumPivots: 32, Seed: seed})
	})
	t.Run("brute-force-filt-bin/dna", func(t *testing.T) {
		reads := dataset.DNA(seed, 300+nq, dataset.DNAOptions{})
		idx, err := core.NewBinFilter[[]byte](space.NormalizedLevenshtein{}, reads[:300], core.BinFilterOptions{NumPivots: 64, Seed: seed})
		checkContract[[]byte](t, idx, err, reads[300:], 2400, 80, 512)
	})
}
