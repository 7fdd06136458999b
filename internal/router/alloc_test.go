package router_test

// Steady-state allocation guards for the sharded query path: a warm
// Local.SearchAppend performs zero allocations per query, with and without
// a stage trace and params attached — observability must not cost the hot
// path its zero-alloc property (the same contract internal/core/alloc_test.go
// enforces for every unsharded index kind).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/shard"
	"repro/internal/space"
	"repro/internal/topk"
)

// buildAllocLocal shards the dense corpus across 3 NAPP indexes — a filter
// kind, so the trace sees filter candidates and refine evaluations from
// every shard probe.
func buildAllocLocal(t *testing.T) (loc *router.Local[[]float32], queries [][]float32) {
	t.Helper()
	db, qs := indextest.DenseCorpus()
	kb := kindBuilder[[]float32]{"napp", func(data [][]float32) (index.Index[[]float32], error) {
		return core.NewNAPP(space.L2{}, data, core.NAPPOptions{
			NumPivots: 32, NumPivotIndex: 8, MinShared: 1, Seed: seed,
		})
	}}
	return buildLocal(t, kb, db, 3, shard.Hash), qs
}

func TestLocalSearchAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the plain test job")
	}
	loc, queries := buildAllocLocal(t)
	const k = 10
	dst := make([]topk.Neighbor, 0, k)
	opts := index.Options{K: k}

	// Warm: grow the merge buffer and every shard's scratch.
	for _, q := range queries {
		dst = loc.SearchAppend(dst[:0], q, opts)
	}
	q := queries[0]
	if got := testing.AllocsPerRun(50, func() {
		dst = loc.SearchAppend(dst[:0], q, opts)
	}); got != 0 {
		t.Errorf("warm sharded SearchAppend allocates %v/op, want 0", got)
	}
	if len(dst) == 0 {
		t.Fatal("warm search returned no results")
	}
}

// TestLocalSearchAppendZeroAllocsTraced: a trace and non-default params
// riding the query reach every shard and cost no allocation.
func TestLocalSearchAppendZeroAllocsTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the plain test job")
	}
	loc, queries := buildAllocLocal(t)
	const k = 10
	var trace obs.QueryTrace
	opts := index.Options{K: k, Trace: &trace, Params: index.Params{MinShared: 2}}
	dst := make([]topk.Neighbor, 0, k)
	for _, q := range queries {
		dst = loc.SearchAppend(dst[:0], q, opts)
	}
	q := queries[0]
	if got := testing.AllocsPerRun(50, func() {
		trace.Reset()
		dst = loc.SearchAppend(dst[:0], q, opts)
	}); got != 0 {
		t.Errorf("warm traced sharded SearchAppend allocates %v/op, want 0", got)
	}
	if trace.FilterCandidates <= 0 || trace.RefineDistances <= 0 {
		t.Errorf("trace saw candidates=%d refines=%d, want > 0 (shard probes share the trace)",
			trace.FilterCandidates, trace.RefineDistances)
	}
	if trace.MergeNs <= 0 {
		t.Errorf("trace.MergeNs = %d, want > 0 (merge time attributed by the Local)", trace.MergeNs)
	}
	// The params reached the shards: t=2 admits fewer candidates than t=1.
	tuned := trace.FilterCandidates
	trace.Reset()
	opts.Params = index.Params{}
	dst = loc.SearchAppend(dst[:0], q, opts)
	if tuned >= trace.FilterCandidates {
		t.Errorf("t=2 produced %d candidates, the t=1 default %d; params did not reach the shards", tuned, trace.FilterCandidates)
	}

	// The trace rides the call: an untraced query must not touch it.
	before := trace
	dst = loc.SearchAppend(dst[:0], q, index.Options{K: k})
	if trace != before {
		t.Error("untraced query wrote to an earlier query's trace")
	}
}
