package lsh

import (
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/synth"
)

var _ index.Index[[]float32] = (*MPLSH)(nil)
var _ index.Sized = (*MPLSH)(nil)

func clustered(seed int64, n, dim int) [][]float32 {
	r := rand.New(rand.NewSource(seed))
	g := synth.NewGaussianMixture(r, dim, 16, 100, 4)
	return g.SampleN(r, n)
}

func TestValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("empty data accepted")
	}
	if _, err := New([][]float32{{}}, Options{}); err == nil {
		t.Fatal("zero-dim accepted")
	}
	if _, err := New([][]float32{{1, 2}, {1}}, Options{}); err == nil {
		t.Fatal("ragged data accepted")
	}
}

func TestRecallOnClusteredData(t *testing.T) {
	data := clustered(1, 2050, 16)
	db, queries := data[:2000], data[2000:]
	idx, err := New(db, Options{Tables: 16, Hashes: 10, Probes: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scan := seqscan.New[[]float32](space.L2{}, db)
	var hit, total int
	for _, q := range queries {
		want := map[uint32]bool{}
		for _, n := range scan.Search(q, 10) {
			want[n.ID] = true
		}
		for _, n := range idx.Search(q, 10) {
			if want[n.ID] {
				hit++
			}
		}
		total += 10
	}
	rec := float64(hit) / float64(total)
	if rec < 0.7 {
		t.Fatalf("MPLSH recall %.3f < 0.7", rec)
	}
}

func TestMoreProbesHigherRecall(t *testing.T) {
	data := clustered(2, 1550, 16)
	db, queries := data[:1500], data[1500:]
	scan := seqscan.New[[]float32](space.L2{}, db)
	truth := scan.SearchAll(queries, 10)
	recall := func(probes int) float64 {
		idx, err := New(db, Options{Tables: 8, Hashes: 12, Probes: probes, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var hit, total int
		for i, q := range queries {
			want := map[uint32]bool{}
			for _, n := range truth[i] {
				want[n.ID] = true
			}
			for _, n := range idx.Search(q, 10) {
				if want[n.ID] {
					hit++
				}
			}
			total += 10
		}
		return float64(hit) / float64(total)
	}
	r0, r20 := recall(0), recall(20)
	if r0 > r20+0.02 {
		t.Fatalf("probing did not help: T=0 %.3f vs T=20 %.3f", r0, r20)
	}
}

func TestProbeSetsValidAndOrdered(t *testing.T) {
	data := clustered(3, 100, 8)
	idx, err := New(data, Options{Tables: 1, Hashes: 6, Probes: 15, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fracs := []float64{0.1, 0.9, 0.5, 0.3, 0.7, 0.02}
	sets := idx.probeSets(fracs, 15)
	if len(sets) == 0 {
		t.Fatal("no probe sets generated")
	}
	prev := -1.0
	for _, set := range sets {
		var score float64
		used := map[int]bool{}
		for _, p := range set {
			if p.delta != 1 && p.delta != -1 {
				t.Fatalf("bad delta %d", p.delta)
			}
			if used[p.i] {
				t.Fatal("probe set perturbs the same hash twice")
			}
			used[p.i] = true
			score += p.score
		}
		if score < prev-1e-12 {
			t.Fatalf("probe sets not in increasing score order: %v after %v", score, prev)
		}
		prev = score
	}
	// All sets must be distinct bucket offsets.
	seen := map[string]bool{}
	for _, set := range sets {
		key := ""
		for _, p := range set {
			key += string(rune('a'+p.i)) + string(rune('0'+p.delta+1))
		}
		if seen[key] {
			t.Fatal("duplicate probe set")
		}
		seen[key] = true
	}
}

func TestSearchEdgeCases(t *testing.T) {
	data := clustered(4, 50, 8)
	idx, err := New(data, Options{Tables: 4, Hashes: 4, Probes: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res := idx.Search(data[0], 0); res != nil {
		t.Fatal("k=0 returned results")
	}
	res := idx.Search(data[0], 5)
	if len(res) == 0 {
		t.Fatal("no results for a data point query")
	}
	if res[0].Dist != 0 {
		t.Fatalf("self not found: %v", res[0])
	}
	seen := map[uint32]bool{}
	for _, n := range res {
		if seen[n.ID] {
			t.Fatal("duplicate result")
		}
		seen[n.ID] = true
	}
}

func TestStats(t *testing.T) {
	data := clustered(5, 100, 8)
	idx, err := New(data, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Stats().Bytes <= 0 {
		t.Fatal("zero footprint")
	}
}

func TestDeterministic(t *testing.T) {
	data := clustered(6, 200, 8)
	q := data[7]
	a, _ := New(data, Options{Seed: 9})
	b, _ := New(data, Options{Seed: 9})
	ra, rb := a.Search(q, 5), b.Search(q, 5)
	if len(ra) != len(rb) {
		t.Fatal("nondeterministic size")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("nondeterministic results")
		}
	}
}
