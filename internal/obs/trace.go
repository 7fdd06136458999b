package obs

import "time"

// QueryTrace is a per-query stage breakdown, filled in by the search path
// when attached and ignored (one nil check per stage) when not. It is a
// plain struct of int64 accumulators — no atomics — because one trace
// belongs to one query: the engine's batch path gives each worker its own
// trace and merges after the barrier, and the server pools traces
// per-request. A nil *QueryTrace everywhere means "untraced" and costs
// nothing on the warm path.
//
// Counts come from the core filter/refine split the paper's efficiency
// argument rests on; the *Ns fields attribute wall time to pipeline
// stages, and the Lsm* fields attribute time to tiered-tree components.
type QueryTrace struct {
	// FilterCandidates is the number of candidate ids the permutation
	// filter stage produced for refinement (for exhaustive filters this is
	// the collection size; for posting-based filters, the distinct ids
	// that survived the candidate scan).
	FilterCandidates int64
	// RefineDistances is the number of exact distance evaluations spent
	// refining candidates (for seqscan, every live point): the distances
	// actually measured, which a screen may keep below the candidates.
	RefineDistances int64
	// PivotDistances is the number of query-to-pivot distances the
	// permutation filter computed, which a screened pivot selection keeps
	// below the pivot count.
	PivotDistances int64

	FilterNs int64 // permutation projection + candidate scan
	RefineNs int64 // exact-distance refinement loop
	MergeNs  int64 // candidate selection + result merge (SelectK, sorts, copy-out)

	// Tiered-tree component attribution (lsm.Tree).
	BaseNs     int64 // immutable base index search
	TierNs     int64 // sealed tier searches (summed)
	MemtableNs int64 // memtable search
	MaskNs     int64 // tombstone masking pass
	Components int64 // searchable components consulted (base + tiers + memtable)
}

// Reset zeroes the trace for reuse.
func (t *QueryTrace) Reset() { *t = QueryTrace{} }

// Merge accumulates o into t (used to fold per-worker batch traces into
// the request trace).
func (t *QueryTrace) Merge(o *QueryTrace) {
	t.FilterCandidates += o.FilterCandidates
	t.RefineDistances += o.RefineDistances
	t.PivotDistances += o.PivotDistances
	t.FilterNs += o.FilterNs
	t.RefineNs += o.RefineNs
	t.MergeNs += o.MergeNs
	t.BaseNs += o.BaseNs
	t.TierNs += o.TierNs
	t.MemtableNs += o.MemtableNs
	t.MaskNs += o.MaskNs
	t.Components += o.Components
}

// StageNames labels the stages of StageNs, in order: the core
// filter/refine/merge pipeline, then the tiered tree's component
// attribution. Consumers (metric labels, slow-query log fields) use these
// names verbatim so every surface agrees on the vocabulary.
var StageNames = [...]string{"filter", "refine", "merge", "lsm_base", "lsm_tiers", "lsm_memtable", "lsm_mask"}

// StageNs returns the per-stage nanosecond totals in StageNames order.
func (t *QueryTrace) StageNs() [len(StageNames)]int64 {
	return [...]int64{t.FilterNs, t.RefineNs, t.MergeNs, t.BaseNs, t.TierNs, t.MemtableNs, t.MaskNs}
}

// AddSince adds the nanoseconds elapsed since t0 to *field. The caller
// nil-checks the trace; this helper exists so stage timing reads as one
// line at each instrumentation site.
func AddSince(field *int64, t0 time.Time) { *field += time.Since(t0).Nanoseconds() }
