package lsm

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/topk"
)

// TestTreeSearchAppendZeroAllocs pins the PR 8 headline fix: a warm tiered
// search over base + sealed tiers + live memtable, with tombstones in play,
// runs entirely on pooled state — the base index's own scratch and the
// tree's one searchScratch (merge buffer, run positions, the run scans'
// Closest scratch and queue) — so SearchAppend into a caller-supplied buffer
// is zero allocations per query.
func TestTreeSearchAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the plain test job")
	}
	const baseN, k = 60, 10
	base := randVecs(1, baseN)
	baseIdx := seqscan.New[[]float32](space.L2{}, base)
	tree := mustOpen(t, testOptions(t, baseN))

	// Shape the tree: one sealed tier, a live memtable, and tombstones
	// spanning base, tier and memtable — the full merge surface.
	added := randVecs(2, 24)
	for _, v := range added[:12] {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, v := range added[12:] {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint32{3, baseN + 2, baseN + 15} {
		if err := tree.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	checkIdentity(t, tree, base, "pre-measure")

	queries := randVecs(7, 8)
	dst := make([]topk.Neighbor, 0, k)
	opts := index.Options{K: k}
	for _, q := range queries {
		dst, _ = tree.SearchAppend(dst[:0], baseIdx, q, opts)
	}
	qi := 0
	if avg := testing.AllocsPerRun(50, func() {
		dst, _ = tree.SearchAppend(dst[:0], baseIdx, queries[qi%len(queries)], opts)
		qi++
	}); avg != 0 {
		t.Errorf("warm tiered SearchAppend allocates %v times per run, want 0", avg)
	}

	// A nil dst pays exactly the result slice and nothing else.
	if avg := testing.AllocsPerRun(50, func() {
		_, _ = tree.SearchAppend(nil, baseIdx, queries[qi%len(queries)], opts)
		qi++
	}); avg > 1 {
		t.Errorf("warm tiered SearchAppend(nil) allocates %v times per run, want <= 1", avg)
	}

	// The instrumented path is held to the same bar: component attribution
	// into an attached QueryTrace adds zero allocations, and the trace must
	// actually account for the full merge surface (base + tier + memtable).
	var trace obs.QueryTrace
	opts.Ctx, opts.Trace = context.Background(), &trace
	if avg := testing.AllocsPerRun(50, func() {
		trace.Reset()
		dst, _ = tree.SearchAppend(dst[:0], baseIdx, queries[qi%len(queries)], opts)
		qi++
	}); avg != 0 {
		t.Errorf("warm traced tiered SearchAppend allocates %v times per run, want 0", avg)
	}
	if trace.BaseNs <= 0 || trace.TierNs <= 0 || trace.MemtableNs <= 0 {
		t.Errorf("component times not attributed: base=%d tier=%d memtable=%d", trace.BaseNs, trace.TierNs, trace.MemtableNs)
	}
	if trace.MaskNs <= 0 {
		t.Errorf("tombstone mask time not attributed with tombstones in play")
	}
	if trace.RefineDistances == 0 {
		t.Errorf("components did not record refine distances through the shared trace")
	}

	// Trace plus non-default params over a base that honors them (NAPP's t):
	// everything a tuned, traced request carries rides the call by value.
	nappBase, err := core.NewNAPP[[]float32](space.L2{}, base, core.NAPPOptions{
		NumPivots: 16, NumPivotIndex: 8, MinShared: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.Params = index.Params{MinShared: 2}
	for _, q := range queries {
		dst, _ = tree.SearchAppend(dst[:0], nappBase, q, opts)
	}
	if avg := testing.AllocsPerRun(50, func() {
		trace.Reset()
		dst, _ = tree.SearchAppend(dst[:0], nappBase, queries[qi%len(queries)], opts)
		qi++
	}); avg != 0 {
		t.Errorf("warm traced+params tiered SearchAppend allocates %v times per run, want 0", avg)
	}
	if trace.FilterCandidates == 0 {
		t.Errorf("NAPP base did not record filter candidates through the shared trace")
	}
}

// TestTreeSearchAppendSurvivesSeal: pooled search state warmed before a seal
// must answer over the new tier list afterwards, not a stale one.
func TestTreeSearchAppendSurvivesSeal(t *testing.T) {
	const baseN, k = 40, 8
	base := randVecs(3, baseN)
	baseIdx := seqscan.New[[]float32](space.L2{}, base)
	tree := mustOpen(t, testOptions(t, baseN))

	queries := randVecs(8, 6)
	var dst []topk.Neighbor
	for _, q := range queries {
		dst, _ = tree.SearchAppend(dst[:0], baseIdx, q, index.Options{K: k})
	}

	added := randVecs(4, 20)
	for i, v := range added {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
		if i == 9 {
			if _, err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tree.Delete(baseN + 1); err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, tree, base, "post-seal")
}
