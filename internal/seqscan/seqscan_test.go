package seqscan

import (
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/space"
	"repro/internal/topk"
)

var _ index.Index[[]float32] = (*Scanner[[]float32])(nil)

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

func TestSearchExactTinyCase(t *testing.T) {
	data := [][]float32{{0}, {10}, {3}, {-1}}
	s := New[[]float32](space.L2{}, data)
	got := s.Search([]float32{0.5}, 2)
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 3 {
		t.Fatalf("got %+v", got)
	}
}

func TestSearchKLargerThanN(t *testing.T) {
	data := [][]float32{{0}, {1}}
	s := New[[]float32](space.L2{}, data)
	got := s.Search([]float32{0}, 10)
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
}

func TestSearchZeroK(t *testing.T) {
	s := New[[]float32](space.L2{}, [][]float32{{0}})
	if got := s.Search([]float32{0}, 0); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestSearchOrderedAndUnique(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := randData(r, 500, 8)
	s := New[[]float32](space.L2{}, data)
	for trial := 0; trial < 20; trial++ {
		q := data[r.Intn(len(data))]
		res := s.Search(q, 10)
		seen := map[uint32]bool{}
		for i, n := range res {
			if seen[n.ID] {
				t.Fatal("duplicate id in result")
			}
			seen[n.ID] = true
			if i > 0 && res[i-1].Dist > n.Dist {
				t.Fatal("results out of order")
			}
		}
		// Self must be the first answer at distance 0.
		if res[0].Dist != 0 {
			t.Fatalf("self not found first: %+v", res[0])
		}
	}
}

func TestSearchAllMatchesSearch(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data := randData(r, 300, 4)
	queries := randData(r, 37, 4)
	s := New[[]float32](space.L2{}, data)
	batch := s.SearchAll(queries, 5)
	if len(batch) != len(queries) {
		t.Fatalf("batch size %d", len(batch))
	}
	for i, q := range queries {
		single := s.Search(q, 5)
		if len(single) != len(batch[i]) {
			t.Fatalf("query %d: len %d vs %d", i, len(single), len(batch[i]))
		}
		for j := range single {
			if single[j] != batch[i][j] {
				t.Fatalf("query %d, pos %d: %+v vs %+v", i, j, single[j], batch[i][j])
			}
		}
	}
}

func TestSearchAllEmptyQueries(t *testing.T) {
	s := New[[]float32](space.L2{}, [][]float32{{0}})
	if got := s.SearchAll(nil, 3); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestAsymmetricLeftQueryConvention(t *testing.T) {
	// With KL divergence, the data point must be the left argument.
	h := func(p ...float32) space.Histogram { return space.NewHistogram(p) }
	data := []space.Histogram{h(0.9, 0.1), h(0.5, 0.5)}
	q := h(0.3, 0.7)
	s := New[space.Histogram](space.KLDivergence{}, data)
	res := s.Search(q, 2)
	kl := space.KLDivergence{}
	want0 := kl.Distance(data[res[0].ID], q)
	if res[0].Dist != want0 {
		t.Fatalf("distance not computed as KL(data||query)")
	}
	if res[0].Dist > res[1].Dist {
		t.Fatal("results out of order")
	}
}

func BenchmarkSeqScan10k(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	data := randData(r, 10000, 128)
	s := New[[]float32](space.L2{}, data)
	q := randData(r, 1, 128)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Search(q, 10)
	}
}

var sink []topk.Neighbor
