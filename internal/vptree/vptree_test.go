package vptree

import (
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/seqscan"
	"repro/internal/space"
)

var _ index.Index[[]float32] = (*Tree[[]float32])(nil)
var _ index.Sized = (*Tree[[]float32])(nil)

func randData(r *rand.Rand, n, dim int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		out[i] = v
	}
	return out
}

func TestExactOnMetricSpace(t *testing.T) {
	// With alpha=1 and a metric space, the VP-tree must return exactly
	// the same answers as a sequential scan.
	r := rand.New(rand.NewSource(1))
	data := randData(r, 2000, 8)
	tree, err := New[[]float32](space.L2{}, data, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	scan := seqscan.New[[]float32](space.L2{}, data)
	queries := randData(r, 50, 8)
	for qi, q := range queries {
		got := tree.Search(q, 10)
		want := scan.Search(q, 10)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d results, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Dist != want[i].Dist {
				t.Fatalf("query %d pos %d: got %+v want %+v", qi, i, got[i], want[i])
			}
		}
	}
}

func TestExactOnL1(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data := randData(r, 800, 4)
	tree, err := New[[]float32](space.L1{}, data, Options{Seed: 3, BucketSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	scan := seqscan.New[[]float32](space.L1{}, data)
	for i := 0; i < 25; i++ {
		q := randData(r, 1, 4)[0]
		got, want := tree.Search(q, 5), scan.Search(q, 5)
		for j := range want {
			if got[j].ID != want[j].ID {
				t.Fatalf("mismatch at %d: %+v vs %+v", j, got[j], want[j])
			}
		}
	}
}

func TestAllPointsReachable(t *testing.T) {
	// k = n must return every point exactly once, regardless of space.
	r := rand.New(rand.NewSource(3))
	data := randData(r, 500, 4)
	tree, err := New[[]float32](space.L2{}, data, Options{Seed: 1, BucketSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	res := tree.Search(data[0], len(data))
	if len(res) != len(data) {
		t.Fatalf("got %d results, want %d", len(res), len(data))
	}
	seen := map[uint32]bool{}
	for _, n := range res {
		if seen[n.ID] {
			t.Fatalf("duplicate id %d", n.ID)
		}
		seen[n.ID] = true
	}
}

func TestDuplicatePointsNoInfiniteRecursion(t *testing.T) {
	// 1000 identical points: median radius is 0 and every point falls in
	// the left partition; the degenerate-split path must terminate.
	data := make([][]float32, 1000)
	for i := range data {
		data[i] = []float32{1, 2, 3}
	}
	tree, err := New[[]float32](space.L2{}, data, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := tree.Search([]float32{1, 2, 3}, 5)
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	for _, n := range res {
		if n.Dist != 0 {
			t.Fatalf("distance %v to duplicate point", n.Dist)
		}
	}
}

func TestEmptyDataRejected(t *testing.T) {
	if _, err := New[[]float32](space.L2{}, nil, Options{}); err == nil {
		t.Fatal("empty data accepted")
	}
}

func TestZeroK(t *testing.T) {
	tree, err := New[[]float32](space.L2{}, [][]float32{{1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := tree.Search([]float32{1}, 0); res != nil {
		t.Fatalf("k=0 returned %v", res)
	}
}

func TestAlphaPrunesMore(t *testing.T) {
	// Larger alpha must compute fewer distances.
	r := rand.New(rand.NewSource(4))
	data := randData(r, 3000, 12)
	counter := space.NewCounter[[]float32](space.L2{})
	tree, err := New[[]float32](counter, data, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	queries := randData(r, 30, 12)

	run := func(alpha float64) int64 {
		opts := index.Options{K: 10, Params: index.Params{AlphaLeft: alpha, AlphaRight: alpha}}
		counter.Reset()
		for _, q := range queries {
			tree.SearchAppend(nil, q, opts)
		}
		return counter.Count()
	}
	exact := run(1)
	loose := run(8)
	if loose >= exact {
		t.Fatalf("alpha=8 computed %d distances, alpha=1 computed %d; pruning is not working", loose, exact)
	}
}

func TestVPTreeBeatsSeqScanOnDistances(t *testing.T) {
	// On clustered low-dimensional data, even exact search must evaluate
	// far fewer distances than a full scan.
	r := rand.New(rand.NewSource(6))
	n := 5000
	data := make([][]float32, n)
	for i := range data {
		cx := float64(r.Intn(10) * 100)
		data[i] = []float32{float32(cx + r.NormFloat64()), float32(r.NormFloat64())}
	}
	counter := space.NewCounter[[]float32](space.L2{})
	tree, err := New[[]float32](counter, data, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counter.Reset()
	const queries = 20
	for i := 0; i < queries; i++ {
		tree.Search(data[r.Intn(n)], 5)
	}
	avg := float64(counter.Count()) / queries
	if avg > float64(n)/2 {
		t.Fatalf("avg %.0f distance computations per query on %d points; pruning ineffective", avg, n)
	}
}

func TestStatsPopulated(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	data := randData(r, 300, 4)
	tree, err := New[[]float32](space.L2{}, data, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.Bytes <= 0 || st.BuildDistances <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDeterministicBuild(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	data := randData(r, 500, 4)
	q := randData(r, 1, 4)[0]
	t1, _ := New[[]float32](space.L2{}, data, Options{Seed: 42, AlphaLeft: 4, AlphaRight: 4})
	t2, _ := New[[]float32](space.L2{}, data, Options{Seed: 42, AlphaLeft: 4, AlphaRight: 4})
	r1, r2 := t1.Search(q, 10), t2.Search(q, 10)
	if len(r1) != len(r2) {
		t.Fatal("nondeterministic result size")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("nondeterministic results for equal seeds")
		}
	}
}

func TestSearchOnNonMetricKL(t *testing.T) {
	// Smoke test on a non-metric space: results must be valid and
	// reasonably accurate with alpha < 1 (less pruning).
	r := rand.New(rand.NewSource(9))
	data := make([]space.Histogram, 500)
	for i := range data {
		p := make([]float32, 8)
		for j := range p {
			p[j] = float32(r.Float64())
		}
		data[i] = space.NewHistogram(p)
	}
	tree, err := New[space.Histogram](space.KLDivergence{}, data, Options{Seed: 1, Beta: 2})
	if err != nil {
		t.Fatal(err)
	}
	scan := seqscan.New[space.Histogram](space.KLDivergence{}, data)
	var hit, total int
	for i := 0; i < 30; i++ {
		q := data[r.Intn(len(data))]
		want := map[uint32]bool{}
		for _, n := range scan.Search(q, 5) {
			want[n.ID] = true
		}
		for _, n := range tree.Search(q, 5) {
			if want[n.ID] {
				hit++
			}
		}
		total += 5
	}
	recall := float64(hit) / float64(total)
	if recall < 0.8 {
		t.Fatalf("KL recall %.2f too low even with beta=2, alpha=1", recall)
	}
}

func TestTuneFindsUsableAlpha(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	data := randData(r, 1500, 6)
	queries := randData(r, 40, 6)
	alpha, rec, err := Tune[[]float32](space.L2{}, data, queries, 5, 0.9, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if alpha < 1 {
		t.Fatalf("tuned alpha %v below exact setting on a metric space", alpha)
	}
	if rec < 0.9 {
		t.Fatalf("tuned recall %v below target", rec)
	}
}

func TestTuneValidation(t *testing.T) {
	if _, _, err := Tune[[]float32](space.L2{}, nil, nil, 5, 0.9, Options{}); err == nil {
		t.Fatal("empty inputs accepted")
	}
	if _, _, err := Tune[[]float32](space.L2{}, [][]float32{{1}}, [][]float32{{1}}, 0, 0.9, Options{}); err == nil {
		t.Fatal("k=0 accepted")
	}
}
