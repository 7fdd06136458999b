package knngraph_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/space"
	"repro/internal/topk"
)

// TestGraphSearchAppendZeroAllocs pins the PR 8 fix: a warm graph query
// runs entirely on pooled scratch — epoch-stamped visited arena, reused
// frontier/result queues, reseeded RNG — so SearchAppend into a
// caller-supplied buffer is zero allocations per query.
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
			return knngraph.NewSW(sp, db, knngraph.Options{NN: 10, Workers: 1, Seed: seed})
		},
		"nndescent-graph": func() (*knngraph.Graph[[]float32], error) {
			return knngraph.NewNNDescent(sp, db, knngraph.Options{NN: 10, Workers: 1, Seed: seed})
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
// exactly like Search: two graphs built identically must return the same
// (dist, id) lists when one is driven through Search and the other through
// SearchAppend, consuming the same entry-point seed sequence.
func TestGraphSearchAppendMatchesSearch(t *testing.T) {
	const n, nq, k, seed = 400, 12, 10, 3
	all := dataset.SIFT(seed, n+nq)
	db, queries := all[:n], all[n:]
	sp := space.L2{}

	ga, err := knngraph.NewSW(sp, db, knngraph.Options{NN: 8, Workers: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	gb, err := knngraph.NewSW(sp, db, knngraph.Options{NN: 8, Workers: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var dst []topk.Neighbor
	for qi, q := range queries {
		want := ga.Search(q, k)
		dst = gb.SearchAppend(dst[:0], q, index.Options{K: k})
		if len(want) != len(dst) {
			t.Fatalf("query %d: Search returned %d results, SearchAppend %d", qi, len(want), len(dst))
		}
		for i := range want {
			if want[i] != dst[i] {
				t.Fatalf("query %d result %d: Search %+v, SearchAppend %+v", qi, i, want[i], dst[i])
			}
		}
	}
}
