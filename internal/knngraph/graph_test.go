package knngraph

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/index"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/synth"
)

var _ index.Index[[]float32] = (*Graph[[]float32])(nil)
var _ index.Sized = (*Graph[[]float32])(nil)

func clustered(seed int64, n, dim int) [][]float32 {
	r := rand.New(rand.NewSource(seed))
	g := synth.NewGaussianMixture(r, dim, 16, 100, 4)
	return g.SampleN(r, n)
}

func recallOf(t *testing.T, g *Graph[[]float32], db, queries [][]float32, k int) float64 {
	t.Helper()
	scan := seqscan.New[[]float32](space.L2{}, db)
	truth := scan.SearchAll(queries, k)
	var hit, total int
	for i, q := range queries {
		want := map[uint32]bool{}
		for _, n := range truth[i] {
			want[n.ID] = true
		}
		for _, n := range g.Search(q, k) {
			if want[n.ID] {
				hit++
			}
		}
		total += k
	}
	return float64(hit) / float64(total)
}

func TestSWRecall(t *testing.T) {
	data := clustered(1, 2050, 16)
	db, queries := data[:2000], data[2000:]
	g, err := NewSW[[]float32](space.L2{}, db, Options{NN: 10, InitAttempts: 3, EfSearch: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf(t, g, db, queries, 10); rec < 0.85 {
		t.Fatalf("SW recall %.3f < 0.85", rec)
	}
	if g.Name() != "sw-graph" {
		t.Fatalf("name = %q", g.Name())
	}
}

func TestNNDescentRecall(t *testing.T) {
	data := clustered(2, 2050, 16)
	db, queries := data[:2000], data[2000:]
	g, err := NewNNDescent[[]float32](space.L2{}, db, Options{NN: 10, InitAttempts: 3, EfSearch: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rec := recallOf(t, g, db, queries, 10); rec < 0.8 {
		t.Fatalf("NN-descent recall %.3f < 0.8", rec)
	}
	if g.Name() != "nndescent-graph" {
		t.Fatalf("name = %q", g.Name())
	}
}

func TestNNDescentGraphQuality(t *testing.T) {
	// The constructed adjacency must approximate the true k-NN lists:
	// measure edge recall against exact 5-NN.
	data := clustered(3, 800, 8)
	g, err := NewNNDescent[[]float32](space.L2{}, data, Options{NN: 5, Seed: 4, MaxIters: 15})
	if err != nil {
		t.Fatal(err)
	}
	scan := seqscan.New[[]float32](space.L2{}, data)
	var hit, total int
	for v := 0; v < 100; v++ {
		// k+1 because the point itself is included by exact search.
		truth := scan.Search(data[v], 6)
		want := map[uint32]bool{}
		for _, n := range truth {
			if int(n.ID) != v {
				want[n.ID] = true
			}
		}
		for _, u := range g.adj[v] {
			if want[u] {
				hit++
			}
		}
		total += 5
	}
	if rec := float64(hit) / float64(total); rec < 0.7 {
		t.Fatalf("NN-descent edge recall %.3f < 0.7", rec)
	}
}

// TestBuildIndependentOfProcs pins that both builders are pure functions of
// (data, options): the saved bytes are the same at 1, 2 and 8 procs. The
// data set spans dozens of SW batches, several NN-descent rounds and more
// than one join block per round.
func TestBuildIndependentOfProcs(t *testing.T) {
	data := clustered(4, 2500, 8)
	builders := map[string]func() (*Graph[[]float32], error){
		"sw-graph": func() (*Graph[[]float32], error) {
			return NewSW[[]float32](space.L2{}, data, Options{NN: 8, Seed: 11})
		},
		"nndescent-graph": func() (*Graph[[]float32], error) {
			return NewNNDescent[[]float32](space.L2{}, data, Options{NN: 8, Seed: 11})
		},
	}
	for kind, build := range builders {
		var want []byte
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			g, err := build()
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			var blob bytes.Buffer
			if err := g.Save(&blob); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = blob.Bytes()
			} else if !bytes.Equal(blob.Bytes(), want) {
				t.Errorf("%s built at GOMAXPROCS=%d saves different bytes than at 1", kind, procs)
			}
		}
	}
}

func TestParallelBuildRaceFree(t *testing.T) {
	// Exercised under -race in CI; validates that parallel SW and
	// NN-descent construction produce a usable graph.
	data := clustered(5, 800, 8)
	g, err := NewSW[[]float32](space.L2{}, data, Options{NN: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := g.Search(data[0], 5)
	if len(res) != 5 {
		t.Fatalf("got %d results", len(res))
	}
	g2, err := NewNNDescent[[]float32](space.L2{}, data, Options{NN: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res := g2.Search(data[0], 5); len(res) != 5 {
		t.Fatalf("got %d results from nn-descent graph", len(res))
	}
}

func TestEmptyAndTiny(t *testing.T) {
	if _, err := NewSW[[]float32](space.L2{}, nil, Options{}); err == nil {
		t.Fatal("SW accepted empty data")
	}
	if _, err := NewNNDescent[[]float32](space.L2{}, nil, Options{}); err == nil {
		t.Fatal("NN-descent accepted empty data")
	}
	one := [][]float32{{1, 2}}
	g, err := NewSW[[]float32](space.L2{}, one, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Search([]float32{1, 2}, 3); len(res) != 1 {
		t.Fatalf("single-point SW search: %v", res)
	}
	g2, err := NewNNDescent[[]float32](space.L2{}, one, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := g2.Search([]float32{1, 2}, 3); len(res) != 1 {
		t.Fatalf("single-point NN-descent search: %v", res)
	}
	three := [][]float32{{0}, {1}, {2}}
	g3, err := NewSW[[]float32](space.L2{}, three, Options{NN: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res := g3.Search([]float32{0.1}, 3); len(res) != 3 {
		t.Fatalf("3-point search: %v", res)
	}
}

func TestSearchValidResults(t *testing.T) {
	data := clustered(6, 500, 8)
	g, err := NewSW[[]float32](space.L2{}, data, Options{NN: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res := g.Search(data[0], 0); res != nil {
		t.Fatal("k=0 returned results")
	}
	res := g.Search(data[0], 10)
	seen := map[uint32]bool{}
	for i, n := range res {
		if seen[n.ID] {
			t.Fatal("duplicate result id")
		}
		seen[n.ID] = true
		if i > 0 && res[i-1].Dist > n.Dist {
			t.Fatal("results out of order")
		}
	}
	if res[0].Dist != 0 {
		t.Fatalf("self not found first: %+v", res[0])
	}
}

func TestMoreAttemptsHigherRecall(t *testing.T) {
	data := clustered(7, 1550, 16)
	db, queries := data[:1500], data[1500:]
	g, err := NewSW[[]float32](space.L2{}, db, Options{NN: 5, InitAttempts: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec1 := recallOf(t, g, db, queries, 10)
	g.opts.InitAttempts = 6
	rec6 := recallOf(t, g, db, queries, 10)
	if rec1 > rec6+0.03 {
		t.Fatalf("more attempts lowered recall: %.3f -> %.3f", rec1, rec6)
	}
}

func TestEfSearchImprovesRecall(t *testing.T) {
	data := clustered(8, 1550, 16)
	db, queries := data[:1500], data[1500:]
	g, err := NewSW[[]float32](space.L2{}, db, Options{NN: 5, InitAttempts: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g.opts.EfSearch = 10
	recSmall := recallOf(t, g, db, queries, 10)
	g.opts.EfSearch = 100
	recBig := recallOf(t, g, db, queries, 10)
	if recSmall > recBig+0.03 {
		t.Fatalf("larger ef lowered recall: %.3f -> %.3f", recSmall, recBig)
	}
}

func TestStatsPopulated(t *testing.T) {
	data := clustered(9, 300, 8)
	g, err := NewSW[[]float32](space.L2{}, data, Options{NN: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Bytes <= 0 || st.BuildDistances <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(g.adj[0]) == 0 {
		t.Fatal("node 0 has no edges")
	}
}
