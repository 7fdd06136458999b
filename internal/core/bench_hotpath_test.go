package core_test

// Hot-path microbenchmarks: steady-state Search cost per method over a warm
// index, with -benchmem accounting so the allocation trajectory (B/op,
// allocs/op) is tracked alongside ns/op. `make bench` runs them; they are an
// in-process convenience, not a gate — performance claims go through
// permbench (bench/).
//
// The corpus is deliberately mid-sized (build stays in seconds) but large
// enough that per-query O(N) work — allocation, memset, full sorts — shows
// up clearly in the profile.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/space"
)

const (
	benchN       = 10000
	benchQueries = 64
	benchK       = 10
	benchSeed    = 7
)

// benchCorpus returns the shared SIFT-like corpus split into db and held-out
// queries.
func benchCorpus() (db, queries [][]float32) {
	all := dataset.SIFT(benchSeed, benchN+benchQueries)
	return all[:benchN], all[benchN:]
}

// benchKinds builds the hot-path method matrix. Parameters follow the
// paper's defaults scaled down enough that every index builds in seconds.
func benchKinds(b *testing.B, sp space.Space[[]float32], db [][]float32) []struct {
	kind  string
	index index.Index[[]float32]
} {
	b.Helper()
	mk := func(kind string, idx index.Index[[]float32], err error) struct {
		kind  string
		index index.Index[[]float32]
	} {
		if err != nil {
			b.Fatalf("building %s: %v", kind, err)
		}
		return struct {
			kind  string
			index index.Index[[]float32]
		}{kind, idx}
	}
	napp, errNapp := core.NewNAPP(sp, db, core.NAPPOptions{
		NumPivots: 256, NumPivotIndex: 16, NumPivotSearch: 16, MinShared: 2, Seed: benchSeed,
	})
	nappCap, errNappCap := core.NewNAPP(sp, db, core.NAPPOptions{
		NumPivots: 256, NumPivotIndex: 16, NumPivotSearch: 16, MinShared: 1, MaxCandidates: 200, Seed: benchSeed,
	})
	mi, errMi := core.NewMIFile(sp, db, core.MIFileOptions{
		NumPivots: 128, NumPivotIndex: 32, NumPivotSearch: 16, MaxPosDiff: 8, Seed: benchSeed,
	})
	pp, errPp := core.NewPPIndex(sp, db, core.PPIndexOptions{
		NumPivots: 32, PrefixLen: 4, Copies: 2, Seed: benchSeed,
	})
	bf, errBf := core.NewBruteForceFilter(sp, db, core.BruteForceOptions{NumPivots: 64, Seed: benchSeed})
	bin, errBin := core.NewBinFilter(sp, db, core.BinFilterOptions{NumPivots: 128, Seed: benchSeed})
	quant, errQuant := core.NewQuantFilter(sp, db, core.QuantFilterOptions{NumPivots: 64, Seed: benchSeed})
	dv, errDv := core.NewDistVecFilter(sp, db, core.BruteForceOptions{NumPivots: 64, Seed: benchSeed})
	om, errOm := core.NewOMEDRANK(sp, db, core.OMEDRANKOptions{NumVoters: 8, Seed: benchSeed})
	return []struct {
		kind  string
		index index.Index[[]float32]
	}{
		mk("napp", napp, errNapp),
		mk("napp-capped", nappCap, errNappCap),
		mk("mi-file", mi, errMi),
		mk("pp-index", pp, errPp),
		mk("brute-force-filt", bf, errBf),
		mk("brute-force-filt-bin", bin, errBin),
		mk("brute-force-filt-quant", quant, errQuant),
		mk("distvec-filt", dv, errDv),
		mk("omedrank", om, errOm),
	}
}

// BenchmarkSearchHot measures steady-state single-query Search on a warm
// index, cycling through held-out queries so no result is cache-trivial.
func BenchmarkSearchHot(b *testing.B) {
	db, queries := benchCorpus()
	sp := space.L2{}
	for _, kc := range benchKinds(b, sp, db) {
		b.Run(kc.kind, func(b *testing.B) {
			kc.index.Search(queries[0], benchK) // warm any lazy state
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kc.index.Search(queries[i%len(queries)], benchK)
			}
		})
	}
	// permbench's serving operating points. At t=2 over 10k points the
	// "napp" row above is refine-bound; at t=22 over 40k points the filter
	// (pivot distances, pivot selection, ScanCount) is most of a query, so
	// this is the row that sees it. dna-direct's point is the expensive
	// distance: 512 pivot distances and ~650 refined reads per query under
	// normalised Levenshtein.
	benchServed(b, "napp-t22-n40k", sp, func(n int) [][]float32 { return dataset.SIFT(benchSeed, n) }, 40000, 22)
	benchServed(b, "napp-dna-t8-n4k", space.NormalizedLevenshtein{},
		func(n int) [][]byte { return dataset.DNA(benchSeed, n, dataset.DNAOptions{}) }, 4000, 8)
}

// benchServed is one NAPP row at the shape permbench serves (m=512,
// mi=ms=32) over n generated objects. The index is built on the first of
// b.Run's calibration rounds, so a -bench filter that skips the row skips
// its build too.
func benchServed[T any](b *testing.B, name string, sp space.Space[T], gen func(n int) []T, n, minShared int) {
	var (
		idx  *core.NAPP[T]
		held []T
	)
	b.Run(name, func(b *testing.B) {
		if idx == nil {
			all := gen(n + benchQueries)
			held = all[n:]
			var err error
			idx, err = core.NewNAPP(sp, all[:n], core.NAPPOptions{
				NumPivots: 512, NumPivotIndex: 32, NumPivotSearch: 32, MinShared: minShared, Seed: benchSeed,
			})
			if err != nil {
				b.Fatal(err)
			}
			idx.Search(held[0], benchK)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.Search(held[i%len(held)], benchK)
		}
	})
}
