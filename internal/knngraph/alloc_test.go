package knngraph_test

import (
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/space"
	"repro/internal/topk"
)

// TestGraphSearchAppendZeroAllocs pins the PR 8 fix: a warm graph query
// runs entirely on pooled scratch — epoch-stamped visited arena, reused
// frontier/result queues, an entry-point generator that lives on the stack
// — so SearchAppend into a caller-supplied buffer is zero allocations per
// query.
func TestGraphSearchAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the plain test job")
	}
	const n, nq, k, seed = 600, 8, 10, 7
	all := dataset.SIFT(seed, n+nq)
	db, queries := all[:n], all[n:]
	sp := space.L2{}

	builds := map[string]func() (*knngraph.Graph[[]float32], error){
		"sw-graph": func() (*knngraph.Graph[[]float32], error) {
			return knngraph.NewSW(sp, db, knngraph.Options{NN: 10, Seed: seed})
		},
		"nndescent-graph": func() (*knngraph.Graph[[]float32], error) {
			return knngraph.NewNNDescent(sp, db, knngraph.Options{NN: 10, Seed: seed})
		},
	}
	for kind, build := range builds {
		t.Run(kind, func(t *testing.T) {
			g, err := build()
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]topk.Neighbor, 0, k)
			for _, q := range queries {
				dst = g.SearchAppend(dst[:0], q, index.Options{K: k})
			}
			qi := 0
			if avg := testing.AllocsPerRun(50, func() {
				dst = g.SearchAppend(dst[:0], queries[qi%len(queries)], index.Options{K: k})
				qi++
			}); avg != 0 {
				t.Errorf("warm SearchAppend allocates %v times per run, want 0", avg)
			}
		})
	}
}

// TestGraphSearchAppendMatchesSearch pins that the pooled path answers
// exactly like Search — and so that asking one graph the same query twice
// answers the same: entry points are derived from the query, not drawn from
// state a search leaves behind.
func TestGraphSearchAppendMatchesSearch(t *testing.T) {
	const n, nq, k, seed = 400, 12, 10, 3
	all := dataset.SIFT(seed, n+nq)
	db, queries := all[:n], all[n:]

	g, err := knngraph.NewSW(space.L2{}, db, knngraph.Options{NN: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var dst []topk.Neighbor
	for qi, q := range queries {
		want := g.Search(q, k)
		dst = g.SearchAppend(dst[:0], q, index.Options{K: k})
		if !slices.Equal(want, dst) {
			t.Fatalf("query %d: Search %+v, SearchAppend %+v", qi, want, dst)
		}
	}
}
