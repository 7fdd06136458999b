package core

import (
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/space"
)

// queriesFrom splits off the last q points of data as queries.
func queriesFrom(data [][]float32, q int) (db, queries [][]float32) {
	return data[:len(data)-q], data[len(data)-q:]
}

func TestBruteForceRecall(t *testing.T) {
	db, queries := queriesFrom(clustered(11, 2050, 16), 50)
	bf, err := NewBruteForceFilter[[]float32](space.L2{}, db, BruteForceOptions{
		NumPivots: 128, Gamma: 0.05, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf[[]float32](t, space.L2{}, db, bf, queries, 10); rec < 0.85 {
		t.Fatalf("brute-force filter recall %.3f < 0.85", rec)
	}
}

func TestBruteForceGammaMonotonic(t *testing.T) {
	db, queries := queriesFrom(clustered(12, 1550, 16), 50)
	rec := func(gamma float64) float64 {
		bf, err := NewBruteForceFilter[[]float32](space.L2{}, db, BruteForceOptions{
			NumPivots: 64, Gamma: gamma, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return recallOf[[]float32](t, space.L2{}, db, bf, queries, 10)
	}
	small, large := rec(0.005), rec(0.2)
	if small > large+0.02 {
		t.Fatalf("recall not monotone in gamma: %.3f (0.005) vs %.3f (0.2)", small, large)
	}
	if large < 0.9 {
		t.Fatalf("gamma=0.2 recall %.3f unexpectedly low", large)
	}
}

func TestBruteForceFootruleWorks(t *testing.T) {
	db, queries := queriesFrom(clustered(14, 1030, 16), 30)
	bf, err := NewBruteForceFilter[[]float32](space.L2{}, db, BruteForceOptions{
		NumPivots: 64, Gamma: 0.1, Dist: FootruleDist, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf[[]float32](t, space.L2{}, db, bf, queries, 10); rec < 0.8 {
		t.Fatalf("footrule filter recall %.3f < 0.8", rec)
	}
}

func TestRankAllSortedComplete(t *testing.T) {
	db, queries := queriesFrom(clustered(15, 520, 8), 20)
	bf, err := NewBruteForceFilter[[]float32](space.L2{}, db, BruteForceOptions{NumPivots: 32, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rank := bf.RankAll(queries[0])
	if len(rank) != len(db) {
		t.Fatalf("RankAll returned %d of %d", len(rank), len(db))
	}
	for i := 1; i < len(rank); i++ {
		if rank[i-1].Dist > rank[i].Dist {
			t.Fatal("RankAll not sorted")
		}
	}
}

func TestBinFilterRecall(t *testing.T) {
	db, queries := queriesFrom(clustered(16, 2050, 16), 50)
	bin, err := NewBinFilter[[]float32](space.L2{}, db, BinFilterOptions{
		NumPivots: 256, Gamma: 0.1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf[[]float32](t, space.L2{}, db, bin, queries, 10); rec < 0.8 {
		t.Fatalf("binarized filter recall %.3f < 0.8", rec)
	}
}

func TestPPIndexRecall(t *testing.T) {
	db, queries := queriesFrom(clustered(17, 2050, 16), 50)
	pp, err := NewPPIndex[[]float32](space.L2{}, db, PPIndexOptions{
		NumPivots: 64, PrefixLen: 6, Copies: 4, Gamma: 0.03, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf[[]float32](t, space.L2{}, db, pp, queries, 10); rec < 0.7 {
		t.Fatalf("pp-index recall %.3f < 0.7", rec)
	}
}

func TestPPIndexMoreCopiesHigherRecall(t *testing.T) {
	db, queries := queriesFrom(clustered(18, 1550, 16), 50)
	rec := func(copies int) float64 {
		pp, err := NewPPIndex[[]float32](space.L2{}, db, PPIndexOptions{
			NumPivots: 64, PrefixLen: 8, Copies: copies, Gamma: 0.01, Seed: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return recallOf[[]float32](t, space.L2{}, db, pp, queries, 10)
	}
	one, four := rec(1), rec(4)
	if one > four+0.05 {
		t.Fatalf("more copies did not help: 1 copy %.3f vs 4 copies %.3f", one, four)
	}
}

func TestMIFileRecall(t *testing.T) {
	db, queries := queriesFrom(clustered(19, 2050, 16), 50)
	mf, err := NewMIFile[[]float32](space.L2{}, db, MIFileOptions{
		NumPivots: 128, NumPivotIndex: 32, NumPivotSearch: 16, Gamma: 0.05, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf[[]float32](t, space.L2{}, db, mf, queries, 10); rec < 0.8 {
		t.Fatalf("mi-file recall %.3f < 0.8", rec)
	}
}

func TestMIFileMaxPosDiffPrunesPostings(t *testing.T) {
	// With D set, fewer postings are scanned; recall may drop slightly
	// but results must stay valid and the D window must cut candidates.
	db, queries := queriesFrom(clustered(20, 1030, 16), 30)
	unbounded, err := NewMIFile[[]float32](space.L2{}, db, MIFileOptions{
		NumPivots: 64, NumPivotIndex: 32, NumPivotSearch: 16, Gamma: 0.5, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := NewMIFile[[]float32](space.L2{}, db, MIFileOptions{
		NumPivots: 64, NumPivotIndex: 32, NumPivotSearch: 16, Gamma: 0.5, MaxPosDiff: 4, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	recU := recallOf[[]float32](t, space.L2{}, db, unbounded, queries, 10)
	recW := recallOf[[]float32](t, space.L2{}, db, windowed, queries, 10)
	if recW > recU+0.05 {
		t.Fatalf("windowed recall %.3f exceeds unbounded %.3f", recW, recU)
	}
	for _, q := range queries[:5] {
		checkValidResults(t, windowed.Search(q, 10), len(db), 10)
	}
}

func TestNAPPRecall(t *testing.T) {
	db, queries := queriesFrom(clustered(21, 2050, 16), 50)
	na, err := NewNAPP[[]float32](space.L2{}, db, NAPPOptions{
		NumPivots: 256, NumPivotIndex: 16, MinShared: 2, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf[[]float32](t, space.L2{}, db, na, queries, 10); rec < 0.85 {
		t.Fatalf("napp recall %.3f < 0.85", rec)
	}
}

func TestNAPPMinSharedTradeoff(t *testing.T) {
	// Larger t must not increase the candidate count; recall typically
	// drops while refinement gets cheaper.
	db, queries := queriesFrom(clustered(22, 1550, 16), 50)
	counter := space.NewCounter[[]float32](space.L2{})
	na, err := NewNAPP[[]float32](counter, db, NAPPOptions{
		NumPivots: 128, NumPivotIndex: 16, MinShared: 1, Seed: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(tShared int) (float64, int64) {
		counter.Reset()
		opts := index.Options{K: 10, Params: index.Params{MinShared: tShared}}
		rec := recallWith[[]float32](t, counter, db, na, queries, opts)
		return rec, counter.Count()
	}
	rec1, cost1 := run(1)
	rec4, cost4 := run(4)
	if cost4 >= cost1 {
		t.Fatalf("t=4 cost %d not below t=1 cost %d", cost4, cost1)
	}
	if rec4 > rec1+0.02 {
		t.Fatalf("t=4 recall %.3f above t=1 recall %.3f", rec4, rec1)
	}
	if rec1 < 0.85 {
		t.Fatalf("t=1 recall %.3f unexpectedly low", rec1)
	}
}

func TestNAPPMaxCandidates(t *testing.T) {
	db, queries := queriesFrom(clustered(23, 1030, 16), 30)
	counter := space.NewCounter[[]float32](space.L2{})
	capped, err := NewNAPP[[]float32](counter, db, NAPPOptions{
		NumPivots: 128, NumPivotIndex: 16, MinShared: 1, MaxCandidates: 20, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	counter.Reset()
	res := capped.Search(queries[0], 10)
	checkValidResults(t, res, len(db), 10)
	// Refinement cost: ms pivot distances (for the query order) plus at
	// most MaxCandidates true distances.
	maxExpected := int64(capped.Options().NumPivots + 20)
	if counter.Count() > maxExpected {
		t.Fatalf("search computed %d distances, cap allows %d", counter.Count(), maxExpected)
	}
}

func TestOMEDRANKRecall(t *testing.T) {
	db, queries := queriesFrom(clustered(24, 2050, 16), 50)
	om, err := NewOMEDRANK[[]float32](space.L2{}, db, OMEDRANKOptions{
		NumVoters: 12, Gamma: 0.05, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf[[]float32](t, space.L2{}, db, om, queries, 10); rec < 0.6 {
		t.Fatalf("omedrank recall %.3f < 0.6", rec)
	}
}

func TestPermVPTreeRecall(t *testing.T) {
	db, queries := queriesFrom(clustered(25, 2050, 16), 50)
	pvt, err := NewPermVPTree[[]float32](space.L2{}, db, PermVPTreeOptions{
		NumPivots: 128, Gamma: 0.05, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf[[]float32](t, space.L2{}, db, pvt, queries, 10); rec < 0.85 {
		t.Fatalf("perm-vptree recall %.3f < 0.85", rec)
	}
}

// TestPermVPTreeMatchesBruteForceFilter: exact gamma-NN retrieval in the
// permutation space must select the same candidate set as the brute-force
// scan when both use the same pivots, so final answers agree.
func TestPermVPTreeMatchesBruteForceFilter(t *testing.T) {
	db, queries := queriesFrom(clustered(26, 520, 8), 20)
	// Same seed => same pivot sample (both draw NumPivots via
	// permutation.Sample from an identical rand stream).
	bf, err := NewBruteForceFilter[[]float32](space.L2{}, db, BruteForceOptions{NumPivots: 32, Gamma: 0.1, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	pvt, err := NewPermVPTree[[]float32](space.L2{}, db, PermVPTreeOptions{NumPivots: 32, Gamma: 0.1, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, q := range queries {
		ra, rb := bf.Search(q, 5), pvt.Search(q, 5)
		if len(ra) == len(rb) {
			same := true
			for i := range ra {
				if ra[i].ID != rb[i].ID {
					same = false
				}
			}
			if same {
				agree++
			}
		}
	}
	// Rho vs sqrt-rho tie-breaking inside SelectK vs tree traversal can
	// differ on boundary candidates; demand a strong majority.
	if agree < len(queries)*3/4 {
		t.Fatalf("only %d/%d queries agree between perm-vptree and brute-force filter", agree, len(queries))
	}
}

func TestMethodsOnNonMetricKL(t *testing.T) {
	// Permutation methods must remain usable on a non-metric,
	// non-symmetric space (Wiki-like KL histograms).
	r := rand.New(rand.NewSource(30))
	data := make([]space.Histogram, 1000)
	for i := range data {
		alpha := make([]float32, 8)
		for j := range alpha {
			alpha[j] = float32(r.Float64() * 0.2)
		}
		alpha[r.Intn(8)] += 1
		data[i] = space.NewHistogram(alpha)
	}
	db, queries := data[:950], data[950:]
	kl := space.KLDivergence{}
	bf, err := NewBruteForceFilter[space.Histogram](kl, db, BruteForceOptions{NumPivots: 64, Gamma: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf[space.Histogram](t, kl, db, bf, queries, 10); rec < 0.6 {
		t.Fatalf("KL brute-force recall %.3f < 0.6", rec)
	}
	na, err := NewNAPP[space.Histogram](kl, db, NAPPOptions{NumPivots: 128, NumPivotIndex: 16, MinShared: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf[space.Histogram](t, kl, db, na, queries, 10); rec < 0.6 {
		t.Fatalf("KL NAPP recall %.3f < 0.6", rec)
	}
}

func TestMethodsOnStrings(t *testing.T) {
	// Binarized filtering over DNA-like strings (the Figure 4f winner).
	r := rand.New(rand.NewSource(31))
	letters := []byte("ACGT")
	mk := func() []byte {
		s := make([]byte, 24+r.Intn(16))
		for i := range s {
			s[i] = letters[r.Intn(4)]
		}
		return s
	}
	base := make([][]byte, 40)
	for i := range base {
		base[i] = mk()
	}
	// Data: mutated copies of base strings, so neighbors exist.
	var data [][]byte
	for i := 0; i < 800; i++ {
		src := base[r.Intn(len(base))]
		cp := append([]byte(nil), src...)
		for j := 0; j < 3; j++ {
			cp[r.Intn(len(cp))] = letters[r.Intn(4)]
		}
		data = append(data, cp)
	}
	db, queries := data[:760], data[760:]
	nl := space.NormalizedLevenshtein{}
	bin, err := NewBinFilter[[]byte](nl, db, BinFilterOptions{NumPivots: 128, Gamma: 0.1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf[[]byte](t, nl, db, bin, queries, 10); rec < 0.5 {
		t.Fatalf("DNA binarized recall %.3f < 0.5", rec)
	}
}

func TestDistVecFilterRecall(t *testing.T) {
	db, queries := queriesFrom(clustered(27, 2050, 16), 50)
	dv, err := NewDistVecFilter[[]float32](space.L2{}, db, BruteForceOptions{
		NumPivots: 128, Gamma: 0.05, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf[[]float32](t, space.L2{}, db, dv, queries, 10); rec < 0.85 {
		t.Fatalf("distvec filter recall %.3f < 0.85", rec)
	}
}

func TestDistVecVsPermutation(t *testing.T) {
	// The §2.1 ablation: at equal pivot count and gamma, permutations
	// should be at least comparable to raw distance vectors (the paper
	// found them slightly better). Accept either being ahead by a
	// small margin, but fail if distance vectors dominate.
	db, queries := queriesFrom(clustered(28, 2050, 16), 50)
	bf, err := NewBruteForceFilter[[]float32](space.L2{}, db, BruteForceOptions{
		NumPivots: 64, Gamma: 0.02, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	dv, err := NewDistVecFilter[[]float32](space.L2{}, db, BruteForceOptions{
		NumPivots: 64, Gamma: 0.02, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	recPerm := recallOf[[]float32](t, space.L2{}, db, bf, queries, 10)
	recDist := recallOf[[]float32](t, space.L2{}, db, dv, queries, 10)
	t.Logf("perm recall %.3f, distvec recall %.3f", recPerm, recDist)
	if recPerm < recDist-0.10 {
		t.Fatalf("permutations much worse than distance vectors: %.3f vs %.3f", recPerm, recDist)
	}
}
