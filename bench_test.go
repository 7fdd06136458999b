// Top-level benchmark harness: one benchmark per table and figure of the
// paper (each regenerates the corresponding rows/series into io.Discard; run
// the cmd/ binaries to see the data), plus ablation benchmarks, one per
// design choice a permutation index makes: the permutation distance (rho or
// Footrule), full or binarized permutations, the MI-file's posting window,
// NAPP's threshold t, a VP-tree over permutations, and rank vectors against
// raw pivot-distance vectors.
//
// Scale note: benchmark configs are deliberately small so the full suite
// runs on a laptop; the cmd/ tools accept -n to scale up.
package permsearch_test

import (
	"io"
	"testing"

	permsearch "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/topk"
)

// benchCfg is the shared small-scale configuration.
var benchCfg = experiments.Config{N: 1200, Queries: 30, Folds: 1, K: 10, Seed: 7}

// imagenetCfg is smaller: signature generation runs k-means per image.
var imagenetCfg = experiments.Config{N: 400, Queries: 20, Folds: 1, K: 10, Seed: 7}

func cfgFor(name string) experiments.Config {
	if name == "imagenet" {
		return imagenetCfg
	}
	return benchCfg
}

// BenchmarkTable1 regenerates the Table 1 row of every data set.
func BenchmarkTable1(b *testing.B) {
	for _, name := range experiments.Names() {
		r, _ := experiments.Get(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := r.Table1(cfgFor(name), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2 regenerates index size and creation time per method.
func BenchmarkTable2(b *testing.B) {
	for _, name := range experiments.Names() {
		r, _ := experiments.Get(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := r.Table2(cfgFor(name), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure2 regenerates the projection scatter panels.
func BenchmarkFigure2(b *testing.B) {
	for _, name := range []string{"sift", "wiki-sparse", "wiki-8-kl", "dna", "wiki-128-kl", "wiki-128-js"} {
		r, _ := experiments.Get(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := r.Figure2(cfgFor(name), 64, 100, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure3 regenerates the recall-vs-candidate-fraction curves.
func BenchmarkFigure3(b *testing.B) {
	dims := []int{16, 64, 256}
	for _, name := range []string{"sift", "wiki-sparse", "wiki-8-kl", "wiki-128-kl", "dna", "imagenet", "wiki-128-js"} {
		r, _ := experiments.Get(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := r.Figure3(cfgFor(name), dims, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4 regenerates the main efficiency-vs-recall sweep.
func BenchmarkFigure4(b *testing.B) {
	for _, name := range experiments.Names() {
		r, _ := experiments.Get(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := r.RunMethods(cfgFor(name), nil, io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation benchmarks: each holds the data fixed and varies one choice ---

// sinkN prevents dead-code elimination of Search results.
var sinkN []topk.Neighbor

// benchData builds a shared SIFT-like workload for the ablations.
func benchData(n int) (db [][]float32, queries [][]float32) {
	data := dataset.SIFT(3, n+64)
	return data[:n], data[n : n+64]
}

// BenchmarkAblation_RhoVsFootrule compares the two permutation distances.
func BenchmarkAblation_RhoVsFootrule(b *testing.B) {
	db, queries := benchData(8000)
	for _, d := range []permsearch.BruteForceOptions{
		{NumPivots: 128, Gamma: 0.02, Seed: 3},
		{NumPivots: 128, Gamma: 0.02, Seed: 3, Dist: 1 /* FootruleDist */},
	} {
		name := "rho"
		if d.Dist != 0 {
			name = "footrule"
		}
		bf, err := permsearch.NewBruteForceFilter[[]float32](permsearch.L2{}, db, d)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkN = bf.Search(queries[i%len(queries)], 10)
			}
		})
	}
}

// BenchmarkAblation_Binarized compares full permutations (128 ranks) with
// binarized sketches (256 bits), the paper's space/speed trade (§3.2).
func BenchmarkAblation_Binarized(b *testing.B) {
	db, queries := benchData(8000)
	bf, err := permsearch.NewBruteForceFilter[[]float32](permsearch.L2{}, db, permsearch.BruteForceOptions{
		NumPivots: 128, Gamma: 0.02, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	bin, err := permsearch.NewBinFilter[[]float32](permsearch.L2{}, db, permsearch.BinFilterOptions{
		NumPivots: 256, Gamma: 0.02, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full-128", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkN = bf.Search(queries[i%len(queries)], 10)
		}
	})
	b.Run("bin-256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkN = bin.Search(queries[i%len(queries)], 10)
		}
	})
}

// BenchmarkAblation_MIFileD measures the MaxPosDiff posting-window
// optimization of the MI-file (§2.3).
func BenchmarkAblation_MIFileD(b *testing.B) {
	db, queries := benchData(8000)
	for _, d := range []int{0, 8} {
		name := "D=unbounded"
		if d > 0 {
			name = "D=8"
		}
		mf, err := permsearch.NewMIFile[[]float32](permsearch.L2{}, db, permsearch.MIFileOptions{
			NumPivots: 128, NumPivotIndex: 32, NumPivotSearch: 16, MaxPosDiff: d, Gamma: 0.02, Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkN = mf.Search(queries[i%len(queries)], 10)
			}
		})
	}
}

// BenchmarkAblation_NAPPParams sweeps NAPP's minimum-shared-pivots t.
func BenchmarkAblation_NAPPParams(b *testing.B) {
	db, queries := benchData(8000)
	napp, err := permsearch.NewNAPP[[]float32](permsearch.L2{}, db, permsearch.NAPPOptions{
		NumPivots: 256, NumPivotIndex: 16, MinShared: 1, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range []int{1, 2, 4} {
		opts := permsearch.SearchOptions{K: 10, Params: permsearch.SearchParams{MinShared: t}}
		b.Run("t="+string(rune('0'+t)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkN = napp.SearchAppend(nil, queries[i%len(queries)], opts)
			}
		})
	}
}

// BenchmarkAblation_PermVPTree compares indexing permutations in a VP-tree
// (Figueroa & Fredriksson) against the linear permutation scan and NAPP —
// the paper found it dominated by one of the two (§3.2).
func BenchmarkAblation_PermVPTree(b *testing.B) {
	db, queries := benchData(8000)
	pvt, err := permsearch.NewPermVPTree[[]float32](permsearch.L2{}, db, permsearch.PermVPTreeOptions{
		NumPivots: 128, Gamma: 0.02, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	bf, err := permsearch.NewBruteForceFilter[[]float32](permsearch.L2{}, db, permsearch.BruteForceOptions{
		NumPivots: 128, Gamma: 0.02, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	napp, err := permsearch.NewNAPP[[]float32](permsearch.L2{}, db, permsearch.NAPPOptions{
		NumPivots: 256, NumPivotIndex: 16, MinShared: 2, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("perm-vptree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkN = pvt.Search(queries[i%len(queries)], 10)
		}
	})
	b.Run("brute-force-filt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkN = bf.Search(queries[i%len(queries)], 10)
		}
	})
	b.Run("napp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkN = napp.Search(queries[i%len(queries)], 10)
		}
	})
}

// BenchmarkAblation_PermVsDistVec compares rank vectors (permutations)
// against raw pivot-distance vectors in the filtering stage (§2.1).
func BenchmarkAblation_PermVsDistVec(b *testing.B) {
	db, queries := benchData(8000)
	bf, err := permsearch.NewBruteForceFilter[[]float32](permsearch.L2{}, db, permsearch.BruteForceOptions{
		NumPivots: 128, Gamma: 0.02, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("perm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkN = bf.Search(queries[i%len(queries)], 10)
		}
	})
	dv, err := core.NewDistVecFilter[[]float32](permsearch.L2{}, db, core.BruteForceOptions{
		NumPivots: 128, Gamma: 0.02, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("distvec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkN = dv.Search(queries[i%len(queries)], 10)
		}
	})
}

// BenchmarkGraphConstruction contrasts SW and NN-descent build costs
// (Table 2's "k-NN graph indexing is slow" column).
func BenchmarkGraphConstruction(b *testing.B) {
	data := dataset.SIFT(5, 2000)
	b.Run("sw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := permsearch.NewSWGraph[[]float32](permsearch.L2{}, data, permsearch.GraphOptions{NN: 10, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			_ = g
		}
	})
	b.Run("nndescent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := permsearch.NewNNDescentGraph[[]float32](permsearch.L2{}, data, permsearch.GraphOptions{NN: 10, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			_ = g
		}
	})
	b.Run("napp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx, err := permsearch.NewNAPP[[]float32](permsearch.L2{}, data, permsearch.NAPPOptions{NumPivots: 256, Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			_ = idx
		}
	})
	b.Run("vptree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			idx, err := permsearch.NewVPTree[[]float32](permsearch.L2{}, data, permsearch.VPTreeOptions{Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
			_ = idx
		}
	})
}
