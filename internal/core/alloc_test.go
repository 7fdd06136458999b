package core_test

// Allocation guards for the query hot path: on a warm index, the
// steady-state cost of answering a query is
//
//   - zero allocations through SearchAppend with a reusable result buffer
//     (the scratch subsystem owns every intermediate) — with or without a
//     trace and non-default params riding the call, and
//   - exactly one allocation through plain Search: the returned result
//     slice, the only memory the index hands to the caller.
//
// The guards run over L2 — where refine, pivot ranking and the exact scan
// hand their pairs to space.Many/ManyFrom, whose widened query lives in the
// pooled scratch — and, for the kinds the DNA corpus is served by, over
// normalised Levenshtein, whose prepared query's match table lives in the
// same pooled scratch and whose bit-parallel kernel keeps a read's one word
// of state in registers. A regression here means a per-query allocation
// crept back into the filter stage, the refine stage or a distance; fix the
// code, don't relax the guard.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/topk"
)

// allocKind is one row of a guarded index matrix.
type allocKind[T any] struct {
	kind     string
	index    index.Index[T]
	noFilter bool // the exact scan: every distance is a refine distance
}

const allocN, allocQueries, allocSeed = 600, 8, 7

// allocKinds builds the guarded index matrix over a small L2 corpus, the
// exact scan included.
func allocKinds(t *testing.T) (queries [][]float32, kinds []allocKind[[]float32]) {
	t.Helper()
	const n, seed = allocN, allocSeed
	all := dataset.SIFT(seed, n+allocQueries)
	db, qs := all[:n], all[n:]
	mk := func(kind string, idx index.Index[[]float32], err error) {
		if err != nil {
			t.Fatalf("building %s: %v", kind, err)
		}
		kinds = append(kinds, allocKind[[]float32]{kind: kind, index: idx})
	}
	napp, err := core.NewNAPP(sp32(), db, core.NAPPOptions{
		NumPivots: 64, NumPivotIndex: 16, NumPivotSearch: 16, MinShared: 1, Seed: seed,
	})
	mk("napp", napp, err)
	nappCap, err := core.NewNAPP(sp32(), db, core.NAPPOptions{
		NumPivots: 64, NumPivotIndex: 16, MinShared: 1, MaxCandidates: 40, Seed: seed,
	})
	mk("napp-capped", nappCap, err)
	mi, err := core.NewMIFile(sp32(), db, core.MIFileOptions{
		NumPivots: 32, NumPivotIndex: 16, NumPivotSearch: 8, MaxPosDiff: 10, Seed: seed,
	})
	mk("mi-file", mi, err)
	pp, err := core.NewPPIndex(sp32(), db, core.PPIndexOptions{
		NumPivots: 16, PrefixLen: 4, Copies: 2, Seed: seed,
	})
	mk("pp-index", pp, err)
	bf, err := core.NewBruteForceFilter(sp32(), db, core.BruteForceOptions{NumPivots: 32, Seed: seed})
	mk("brute-force-filt", bf, err)
	bin, err := core.NewBinFilter(sp32(), db, core.BinFilterOptions{NumPivots: 64, Seed: seed})
	mk("brute-force-filt-bin", bin, err)
	quant, err := core.NewQuantFilter(sp32(), db, core.QuantFilterOptions{NumPivots: 64, Seed: seed})
	mk("brute-force-filt-quant", quant, err)
	dv, err := core.NewDistVecFilter(sp32(), db, core.BruteForceOptions{NumPivots: 32, Seed: seed})
	mk("distvec-filt", dv, err)
	om, err := core.NewOMEDRANK(sp32(), db, core.OMEDRANKOptions{NumVoters: 6, Seed: seed})
	mk("omedrank", om, err)
	kinds = append(kinds, allocKind[[]float32]{kind: "seqscan", index: seqscan.New(sp32(), db), noFilter: true})
	return qs, kinds
}

func sp32() space.Space[[]float32] { return space.L2{} }

// allocKindsDNA builds the guarded matrix over short reads under normalised
// Levenshtein: the served NAPP operating point's threshold, a scan filter
// and the exact scan — filter, refine and nothing but distances.
func allocKindsDNA(t *testing.T) (queries [][]byte, kinds []allocKind[[]byte]) {
	t.Helper()
	const n, seed = allocN, allocSeed
	all := dataset.DNA(seed, n+allocQueries, dataset.DNAOptions{})
	db, qs := all[:n], all[n:]
	sp := space.NormalizedLevenshtein{}
	napp, err := core.NewNAPP[[]byte](sp, db, core.NAPPOptions{
		NumPivots: 64, NumPivotIndex: 16, NumPivotSearch: 16, MinShared: 8, Seed: seed,
	})
	if err != nil {
		t.Fatalf("building dna/napp-t8: %v", err)
	}
	bin, err := core.NewBinFilter[[]byte](sp, db, core.BinFilterOptions{NumPivots: 64, Seed: seed})
	if err != nil {
		t.Fatalf("building dna/brute-force-filt-bin: %v", err)
	}
	return qs, []allocKind[[]byte]{
		{kind: "dna/napp-t8", index: napp},
		{kind: "dna/brute-force-filt-bin", index: bin},
		{kind: "dna/seqscan", index: seqscan.New[[]byte](sp, db), noFilter: true},
	}
}

// TestSearchAppendZeroAllocs asserts the headline property of the scratch
// subsystem: a warm index answers queries with zero steady-state
// allocations when the caller supplies the result buffer.
func TestSearchAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the plain test job")
	}
	queries, kinds := allocKinds(t)
	searchAppendZeroAllocs(t, queries, kinds)
	reads, dnaKinds := allocKindsDNA(t)
	searchAppendZeroAllocs(t, reads, dnaKinds)
}

func searchAppendZeroAllocs[T any](t *testing.T, queries []T, kinds []allocKind[T]) {
	const k = 10
	for _, kc := range kinds {
		t.Run(kc.kind, func(t *testing.T) {
			dst := make([]topk.Neighbor, 0, k)
			opts := index.Options{K: k}
			// Warm every query first: candidate counts differ per query,
			// so each may grow the scratch buffers a little further.
			for _, q := range queries {
				dst = kc.index.SearchAppend(dst[:0], q, opts)
			}
			qi := 0
			if avg := testing.AllocsPerRun(50, func() {
				dst = kc.index.SearchAppend(dst[:0], queries[qi%len(queries)], opts)
				qi++
			}); avg != 0 {
				t.Errorf("warm SearchAppend allocates %v times per run, want 0", avg)
			}
		})
	}
}

// TestSearchAppendZeroAllocsTraced asserts the observability hard
// constraint: a QueryTrace and non-default method params riding a warm
// query (stage counters + stage timing on every query) must not add a
// single allocation — and the trace must actually be populated, so the
// guard cannot pass by tracing nothing.
func TestSearchAppendZeroAllocsTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the plain test job")
	}
	queries, kinds := allocKinds(t)
	searchAppendZeroAllocsTraced(t, queries, kinds)
	reads, dnaKinds := allocKindsDNA(t)
	searchAppendZeroAllocsTraced(t, reads, dnaKinds)
}

func searchAppendZeroAllocsTraced[T any](t *testing.T, queries []T, kinds []allocKind[T]) {
	const k = 10
	for _, kc := range kinds {
		t.Run(kc.kind, func(t *testing.T) {
			var trace obs.QueryTrace
			// Each kind reads only its own knob; the rest are ignored.
			opts := index.Options{K: k, Trace: &trace, Params: index.Params{Gamma: 0.1, MinShared: 2}}
			dst := make([]topk.Neighbor, 0, k)
			for _, q := range queries {
				dst = kc.index.SearchAppend(dst[:0], q, opts)
			}
			qi := 0
			if avg := testing.AllocsPerRun(50, func() {
				trace.Reset()
				dst = kc.index.SearchAppend(dst[:0], queries[qi%len(queries)], opts)
				qi++
			}); avg != 0 {
				t.Errorf("warm traced SearchAppend allocates %v times per run, want 0", avg)
			}
			if trace.FilterCandidates == 0 && !kc.noFilter {
				t.Errorf("trace.FilterCandidates = 0 after a traced query")
			}
			if trace.RefineDistances == 0 {
				t.Errorf("trace.RefineDistances = 0 after a traced query")
			}
			if trace.RefineNs <= 0 {
				t.Errorf("trace.RefineNs = %d after a traced query", trace.RefineNs)
			}
			// The trace rides the call: an untraced query must not touch it.
			before := trace
			dst = kc.index.SearchAppend(dst[:0], queries[0], index.Options{K: k})
			if trace != before {
				t.Errorf("trace mutated by an untraced query: %+v -> %+v", before, trace)
			}
		})
	}
}

// TestSearchSingleAlloc asserts the plain Search entry point costs exactly
// the documented constant on a warm index: one allocation, the returned
// result slice (scratch is pooled per query inside the index).
func TestSearchSingleAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the plain test job")
	}
	queries, kinds := allocKinds(t)
	searchSingleAlloc(t, queries, kinds)
	reads, dnaKinds := allocKindsDNA(t)
	searchSingleAlloc(t, reads, dnaKinds)
}

func searchSingleAlloc[T any](t *testing.T, queries []T, kinds []allocKind[T]) {
	const k = 10
	for _, kc := range kinds {
		t.Run(kc.kind, func(t *testing.T) {
			for _, q := range queries {
				kc.index.Search(q, k)
			}
			qi := 0
			if avg := testing.AllocsPerRun(50, func() {
				kc.index.Search(queries[qi%len(queries)], k)
				qi++
			}); avg > 1 {
				t.Errorf("warm Search allocates %v times per run, want <= 1 (the result slice)", avg)
			}
		})
	}
}
