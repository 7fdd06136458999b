package vptree_test

// Allocation guards for the VP-tree query path, in the style of
// internal/core/alloc_test.go: on a warm tree the steady-state cost of a
// query is zero allocations through SearchAppend (the traversal stack and
// queue are pooled scratch) — with or without a trace and non-default alpha
// riding the call — and at most one through plain Search (the returned
// result slice). Run over L2 so only tree machinery is measured.

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vptree"
)

func buildAllocTree(t *testing.T) (*vptree.Tree[[]float32], [][]float32) {
	t.Helper()
	const n, nq, seed = 600, 8, 7
	all := dataset.SIFT(seed, n+nq)
	tree, err := vptree.New[[]float32](space.L2{}, all[:n], vptree.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return tree, all[n:]
}

// TestVPTreeSearchAppendZeroAllocs: a warm tree answers with zero
// steady-state allocations when the caller recycles the result buffer,
// whatever options the query carries.
func TestVPTreeSearchAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the plain test job")
	}
	const k = 10
	tree, queries := buildAllocTree(t)
	var trace obs.QueryTrace
	for name, opts := range map[string]index.Options{
		"plain":         {K: k},
		"traced+params": {K: k, Trace: &trace, Params: index.Params{AlphaLeft: 1.5, AlphaRight: 2}},
	} {
		t.Run(name, func(t *testing.T) {
			dst := make([]topk.Neighbor, 0, k)
			// Warm every query: each may deepen the frontier stack a little.
			for _, q := range queries {
				dst = tree.SearchAppend(dst[:0], q, opts)
			}
			qi := 0
			if avg := testing.AllocsPerRun(50, func() {
				dst = tree.SearchAppend(dst[:0], queries[qi%len(queries)], opts)
				qi++
			}); avg != 0 {
				t.Errorf("warm SearchAppend allocates %v times per run, want 0", avg)
			}
		})
	}
}

// TestVPTreeSearchSingleAlloc: plain Search costs at most the documented
// one allocation (the result slice) on a warm tree.
func TestVPTreeSearchSingleAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the plain test job")
	}
	const k = 10
	tree, queries := buildAllocTree(t)
	for _, q := range queries {
		tree.Search(q, k)
	}
	qi := 0
	if avg := testing.AllocsPerRun(50, func() {
		tree.Search(queries[qi%len(queries)], k)
		qi++
	}); avg > 1 {
		t.Errorf("warm Search allocates %v times per run, want <= 1 (the result slice)", avg)
	}
}
