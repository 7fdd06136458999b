package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/permutation"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/synth"
	"repro/internal/topk"
)

// Interface compliance for every method in the package.
var (
	_ index.Index[[]float32] = (*ScanFilter[[]float32])(nil)
	_ index.Index[[]float32] = (*PPIndex[[]float32])(nil)
	_ index.Index[[]float32] = (*MIFile[[]float32])(nil)
	_ index.Index[[]float32] = (*NAPP[[]float32])(nil)
	_ index.Index[[]float32] = (*OMEDRANK[[]float32])(nil)
	_ index.Index[[]float32] = (*PermVPTree[[]float32])(nil)

	_ index.Sized = (*ScanFilter[[]float32])(nil)
	_ index.Sized = (*PPIndex[[]float32])(nil)
	_ index.Sized = (*MIFile[[]float32])(nil)
	_ index.Sized = (*NAPP[[]float32])(nil)
	_ index.Sized = (*OMEDRANK[[]float32])(nil)
	_ index.Sized = (*PermVPTree[[]float32])(nil)
)

// clustered builds a clustered Gaussian data set for recall tests.
func clustered(seed int64, n, dim int) [][]float32 {
	r := rand.New(rand.NewSource(seed))
	g := synth.NewGaussianMixture(r, dim, 16, 100, 4)
	return g.SampleN(r, n)
}

// recallOf measures k-NN recall of idx against exact search over data.
func recallOf[T any](t *testing.T, sp space.Space[T], data []T, idx index.Index[T], queries []T, k int) float64 {
	t.Helper()
	return recallWith(t, sp, data, idx, queries, index.Options{K: k})
}

// recallWith is recallOf under explicit per-query options.
func recallWith[T any](t *testing.T, sp space.Space[T], data []T, idx index.Index[T], queries []T, opts index.Options) float64 {
	t.Helper()
	k := opts.K
	scan := seqscan.New(sp, data)
	truth := scan.SearchAll(queries, k)
	var hit, total int
	for i, q := range queries {
		want := map[uint32]bool{}
		for _, n := range truth[i] {
			want[n.ID] = true
		}
		for _, n := range idx.SearchAppend(nil, q, opts) {
			if want[n.ID] {
				hit++
			}
		}
		total += len(truth[i])
	}
	return float64(hit) / float64(total)
}

// checkValidResults verifies ordering, uniqueness and id bounds.
func checkValidResults(t *testing.T, res []topk.Neighbor, n, k int) {
	t.Helper()
	if len(res) > k {
		t.Fatalf("more than k results: %d > %d", len(res), k)
	}
	seen := map[uint32]bool{}
	for i, x := range res {
		if int(x.ID) >= n {
			t.Fatalf("id %d out of range", x.ID)
		}
		if seen[x.ID] {
			t.Fatalf("duplicate id %d", x.ID)
		}
		seen[x.ID] = true
		if i > 0 && res[i-1].Dist > x.Dist {
			t.Fatalf("results out of order at %d", i)
		}
	}
}

func TestGammaCount(t *testing.T) {
	if g := gammaCount(0.1, 1000, 10); g != 100 {
		t.Fatalf("g = %d, want 100", g)
	}
	if g := gammaCount(0.0001, 1000, 10); g != 10 {
		t.Fatalf("floor: g = %d, want 10", g)
	}
	if g := gammaCount(5, 1000, 10); g != 1000 {
		t.Fatalf("cap: g = %d, want 1000", g)
	}
}

// TestComputePermutationsMatchesPermutation: the build's per-worker ranking
// writes, row by row, what the allocating Pivots.Permutation returns, and its
// order rows are Pivots.Order's prefixes — over L2, whose order rows take the
// screened selection, and over reads under normalised Levenshtein, whose
// pivot distances take the prepared-pattern path.
func TestComputePermutationsMatchesPermutation(t *testing.T) {
	checkComputePermutations[[]float32](t, space.L2{}, dataset.SIFT(3, 300))
	checkComputePermutations[[]byte](t, space.NormalizedLevenshtein{}, dataset.DNA(3, 300, dataset.DNAOptions{}))
}

func checkComputePermutations[T any](t *testing.T, sp space.Space[T], data []T) {
	pv, err := permutation.Sample(rand.New(rand.NewSource(3)), sp, data, 37)
	if err != nil {
		t.Fatal(err)
	}
	const mi = 8
	m, flat, orders := pv.M(), perPoint(data, pv.M(), pv.PermutationWith), computeOrders(pv, data, mi)
	for i, x := range data {
		if got, want := flat[i*m:(i+1)*m], pv.Permutation(x, nil); !slices.Equal(got, want) {
			t.Fatalf("%s: point %d: permutation row %v, Permutation %v", sp.Name(), i, got, want)
		}
		if got, want := orders[i*mi:(i+1)*mi], pv.Order(x, nil)[:mi]; !slices.Equal(got, want) {
			t.Fatalf("%s: point %d: computeOrders row %v, Order prefix %v", sp.Name(), i, got, want)
		}
	}
}

func TestPermDistString(t *testing.T) {
	if Rho.String() != "spearman-rho" || FootruleDist.String() != "footrule" {
		t.Fatal("PermDist names wrong")
	}
	if PermDist(99).String() == "" {
		t.Fatal("unknown PermDist should still stringify")
	}
}

// TestBruteForceGammaOneIsExact: with gamma = 1 every point is refined, so
// the filter must return exactly the sequential-scan answer.
func TestBruteForceGammaOneIsExact(t *testing.T) {
	data := clustered(1, 800, 8)
	bf, err := NewBruteForceFilter[[]float32](space.L2{}, data, BruteForceOptions{NumPivots: 32, Gamma: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	scan := seqscan.New[[]float32](space.L2{}, data)
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		q := data[r.Intn(len(data))]
		got, want := bf.Search(q, 10), scan.Search(q, 10)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("mismatch at %d: %+v vs %+v", j, got[j], want[j])
			}
		}
	}
}

// TestMIFileFullIsExact: with mi = ms = m and gamma = 1 the MI-file sees the
// complete permutations of every point and must equal the sequential scan.
func TestMIFileFullIsExact(t *testing.T) {
	data := clustered(3, 600, 8)
	mf, err := NewMIFile[[]float32](space.L2{}, data, MIFileOptions{
		NumPivots: 16, NumPivotIndex: 16, NumPivotSearch: 16, Gamma: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	scan := seqscan.New[[]float32](space.L2{}, data)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 20; i++ {
		q := data[r.Intn(len(data))]
		got, want := mf.Search(q, 5), scan.Search(q, 5)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("mismatch at %d: %+v vs %+v", j, got[j], want[j])
			}
		}
	}
}

// TestOMEDRANKGammaOneIsExact: with gamma = 1 the aggregation walks every
// voter list to the end, so every point is refined.
func TestOMEDRANKGammaOneIsExact(t *testing.T) {
	data := clustered(5, 400, 8)
	om, err := NewOMEDRANK[[]float32](space.L2{}, data, OMEDRANKOptions{NumVoters: 4, Gamma: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	scan := seqscan.New[[]float32](space.L2{}, data)
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 10; i++ {
		q := data[r.Intn(len(data))]
		got, want := om.Search(q, 5), scan.Search(q, 5)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("mismatch at %d: %+v vs %+v", j, got[j], want[j])
			}
		}
	}
}

// TestOMEDRANKVoterCap: the quorum counters hold a byte, so 255 voters
// build and search — under a full quorum, every count reaching 255, exactly
// — and 256 are refused.
func TestOMEDRANKVoterCap(t *testing.T) {
	data := clustered(5, 300, 8)
	om, err := NewOMEDRANK[[]float32](space.L2{}, data, OMEDRANKOptions{NumVoters: maxVoters, Quorum: 1, Gamma: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	scan := seqscan.New[[]float32](space.L2{}, data)
	for _, q := range data[:5] {
		if got, want := om.Search(q, 5), scan.Search(q, 5); !slices.Equal(got, want) {
			t.Fatalf("255 voters: got %v, want %v", got, want)
		}
	}
	if _, err := NewOMEDRANK[[]float32](space.L2{}, data, OMEDRANKOptions{NumVoters: maxVoters + 1}); err == nil {
		t.Fatal("256 voters accepted")
	}
	// A file of 256 voters, which only a hand-built index writes, is corrupt.
	m := maxVoters + 1
	pv, err := samplePivots[[]float32](space.L2{}, data, &m, 5)
	if err != nil {
		t.Fatal(err)
	}
	wide := &OMEDRANK[[]float32]{data: data, pivots: pv, opts: om.opts, voters: append(slices.Clone(om.voters), om.voters[0])}
	wide.opts.NumVoters = m
	wide.bind(wide, space.L2{}, data, 1)
	var buf bytes.Buffer
	if err := wide.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cr, err := codec.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOMEDRANK[[]float32](cr, space.L2{}, data); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("loading 256 voters: err = %v, want ErrCorrupt", err)
	}
}

// figure1Pivots returns the pivot set of the paper's Figure 1 example (see
// permutation package tests for the geometry) plus points a, b, c, d.
func figure1Pivots(t *testing.T) (pv *permutation.Pivots[[]float32], a, b, c, d []float32) {
	t.Helper()
	pts := [][]float32{{0, 0}, {2, 0}, {0, 4}, {2.5, 3.5}}
	pv, err := permutation.NewPivots[[]float32](space.L2{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	return pv, []float32{0.5, 0.1}, []float32{0.9, 0.8}, []float32{0, 2.04}, []float32{3.2, 1.8}
}

// TestMIFilePaperExample reproduces the worked example of §2.3: with
// mi = ms = 2 and query a over data {b, c, d}, the estimated (truncated)
// Footrule accumulators must end at b=0, c=5, d=4.
func TestMIFilePaperExample(t *testing.T) {
	pv, a, b, c, d := figure1Pivots(t)
	data := [][]float32{b, c, d}
	mf, err := NewMIFileWithPivots[[]float32](space.L2{}, data, pv, MIFileOptions{
		NumPivotIndex: 2, NumPivotSearch: 2, Gamma: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Recompute the estimates exactly as Search does.
	qorder := pv.Order(a, nil)
	m := int32(4)
	gain := map[uint32]int32{}
	for qpos := 0; qpos < 2; qpos++ {
		for _, pe := range mf.postings[qorder[qpos]] {
			diff := pe.pos - int32(qpos)
			if diff < 0 {
				diff = -diff
			}
			gain[pe.id] += m - diff
		}
	}
	est := func(id uint32) int32 { return 2*m - gain[id] }
	// data ids: b=0, c=1, d=2.
	if est(0) != 0 || est(1) != 5 || est(2) != 4 {
		t.Fatalf("estimates = b:%d c:%d d:%d, want 0/5/4", est(0), est(1), est(2))
	}

	// End-to-end: the estimate-nearest candidate is b, and with k=1 and
	// the smallest gamma the search must return b.
	res := mf.Search(a, 1)
	if len(res) != 1 || res[0].ID != 0 {
		t.Fatalf("Search(a, 1) = %+v, want point b (id 0)", res)
	}
}

// TestNAPPPaperExample reproduces the §2.3 NAPP example: with one indexed
// pivot per point, a shares its closest pivot (pi1) only with b, so b is the
// only candidate.
func TestNAPPPaperExample(t *testing.T) {
	pv, a, b, c, d := figure1Pivots(t)
	data := [][]float32{b, c, d}
	na, err := NewNAPPWithPivots[[]float32](space.L2{}, data, pv, NAPPOptions{
		NumPivotIndex: 1, NumPivotSearch: 1, MinShared: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := na.Search(a, 3)
	if len(res) != 1 || res[0].ID != 0 {
		t.Fatalf("Search(a) = %+v, want only point b (id 0)", res)
	}
}

func TestEmptyDataRejectedEverywhere(t *testing.T) {
	sp := space.L2{}
	if _, err := NewBruteForceFilter[[]float32](sp, nil, BruteForceOptions{}); err == nil {
		t.Fatal("brute-force accepted empty data")
	}
	if _, err := NewBinFilter[[]float32](sp, nil, BinFilterOptions{}); err == nil {
		t.Fatal("bin filter accepted empty data")
	}
	if _, err := NewPPIndex[[]float32](sp, nil, PPIndexOptions{}); err == nil {
		t.Fatal("pp-index accepted empty data")
	}
	if _, err := NewMIFile[[]float32](sp, nil, MIFileOptions{}); err == nil {
		t.Fatal("mi-file accepted empty data")
	}
	if _, err := NewNAPP[[]float32](sp, nil, NAPPOptions{}); err == nil {
		t.Fatal("napp accepted empty data")
	}
	if _, err := NewOMEDRANK[[]float32](sp, nil, OMEDRANKOptions{}); err == nil {
		t.Fatal("omedrank accepted empty data")
	}
	if _, err := NewPermVPTree[[]float32](sp, nil, PermVPTreeOptions{}); err == nil {
		t.Fatal("perm-vptree accepted empty data")
	}
}

func TestTinyDatasets(t *testing.T) {
	// Single-point and two-point data sets must work for every method.
	sp := space.L2{}
	for _, data := range [][][]float32{
		{{1, 2}},
		{{1, 2}, {3, 4}},
	} {
		builders := map[string]func() (index.Index[[]float32], error){
			"bf": func() (index.Index[[]float32], error) {
				return NewBruteForceFilter[[]float32](sp, data, BruteForceOptions{})
			},
			"bin": func() (index.Index[[]float32], error) {
				return NewBinFilter[[]float32](sp, data, BinFilterOptions{})
			},
			"pp": func() (index.Index[[]float32], error) {
				return NewPPIndex[[]float32](sp, data, PPIndexOptions{})
			},
			"mi": func() (index.Index[[]float32], error) {
				return NewMIFile[[]float32](sp, data, MIFileOptions{})
			},
			"napp": func() (index.Index[[]float32], error) {
				return NewNAPP[[]float32](sp, data, NAPPOptions{})
			},
			"omed": func() (index.Index[[]float32], error) {
				return NewOMEDRANK[[]float32](sp, data, OMEDRANKOptions{})
			},
			"pvt": func() (index.Index[[]float32], error) {
				return NewPermVPTree[[]float32](sp, data, PermVPTreeOptions{})
			},
		}
		for name, build := range builders {
			idx, err := build()
			if err != nil {
				t.Fatalf("%s on %d points: %v", name, len(data), err)
			}
			res := idx.Search([]float32{1, 2}, 5)
			if len(res) == 0 {
				t.Fatalf("%s on %d points returned nothing", name, len(data))
			}
			checkValidResults(t, res, len(data), 5)
			if res := idx.Search([]float32{1, 2}, 0); res != nil {
				t.Fatalf("%s: k=0 returned results", name)
			}
		}
	}
}

func TestStatsPopulatedEverywhere(t *testing.T) {
	data := clustered(7, 300, 8)
	sp := space.L2{}
	idxs := []index.Sized{}
	bf, _ := NewBruteForceFilter[[]float32](sp, data, BruteForceOptions{NumPivots: 16})
	bin, _ := NewBinFilter[[]float32](sp, data, BinFilterOptions{NumPivots: 64})
	pp, _ := NewPPIndex[[]float32](sp, data, PPIndexOptions{NumPivots: 16, PrefixLen: 3, Copies: 2})
	mi, _ := NewMIFile[[]float32](sp, data, MIFileOptions{NumPivots: 16, NumPivotIndex: 8})
	na, _ := NewNAPP[[]float32](sp, data, NAPPOptions{NumPivots: 32, NumPivotIndex: 8})
	om, _ := NewOMEDRANK[[]float32](sp, data, OMEDRANKOptions{NumVoters: 4})
	pv, _ := NewPermVPTree[[]float32](sp, data, PermVPTreeOptions{NumPivots: 16})
	idxs = append(idxs, bf, bin, pp, mi, na, om, pv)
	for i, ix := range idxs {
		st := ix.Stats()
		if st.Bytes <= 0 {
			t.Fatalf("index %d: zero Bytes", i)
		}
		if st.BuildDistances <= 0 {
			t.Fatalf("index %d: zero BuildDistances", i)
		}
	}
}
