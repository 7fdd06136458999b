package lsh

// Allocation guards for the MPLSH query path, in the style of
// internal/vptree/alloc_test.go: on a warm index a query through
// SearchAppend allocates nothing, with or without perturbed probes — the
// dedup marks, the candidate list, the probe-set heap and its arenas, and
// the result queue are pooled scratch.

import (
	"testing"

	"repro/internal/index"
	"repro/internal/topk"
)

func TestSearchAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the plain test job")
	}
	const k = 10
	data := clustered(1, 2050, 16)
	db, queries := data[:2000], data[2000:]
	idx, err := New(db, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]index.Options{
		"no-probes":      {K: k, Params: index.Params{Probes: -1}},
		"default-probes": {K: k},
	} {
		t.Run(name, func(t *testing.T) {
			dst := make([]topk.Neighbor, 0, k)
			for _, q := range queries {
				dst = idx.SearchAppend(dst[:0], q, opts)
			}
			qi := 0
			if avg := testing.AllocsPerRun(50, func() {
				dst = idx.SearchAppend(dst[:0], queries[qi%len(queries)], opts)
				qi++
			}); avg != 0 {
				t.Errorf("warm SearchAppend allocates %v times per run, want 0", avg)
			}
		})
	}
}
