// Package router is the scatter-gather HTTP front tier of the sharded
// serving stack (Router, router.go): it fans a k-NN request out to S shard
// replica groups of remote permserve processes and merges their top-k lists
// into one answer. It routes answers and never computes one, so it links no
// index code: `make deps` holds it (and internal/wire) to the wire dialect,
// the shard manifest, the codec and observability.
//
// # Merge semantics
//
// Shards are disjoint partitions of one corpus (internal/shard), and every
// shard daemon answers in corpus-global ids with true distances (it serves
// its index as an index.Subset over the shard's id map). The merged answer
// is the canonical k smallest of the concatenated lists by (dist, id) — the
// same lexicographic order topk.Queue keeps and topk.ByDist/SelectK
// produce. Whenever each shard returns its shard-local true top-k (exact
// methods, or filter methods run with a full candidate budget), the merge
// therefore reproduces the unsharded index's answer bit for bit, ties
// included; the sharded-identity suite in internal/indextest asserts exactly
// this for every registered index kind. For approximate settings the merge
// is still deterministic, and the union of S per-shard top-k candidate lists
// tends to *improve* recall over one unsharded index (k·S refined
// candidates instead of k).
//
// # Wire
//
// Router speaks the serving daemon's dialect, declared once in
// internal/wire: the same DecodeSearch validates a request, the same
// CheckNeighbors bound refuses an oversized one before anything is
// scattered, the body is forwarded verbatim, and the merged answer marshals from the same
// SearchResponse struct the shards answered in — byte-identical to an
// unsharded daemon's unless a shard failed ("partial", "failed_shards").
// Counters exist once, as obs handles, and /metrics is the one page that
// reads them; the generation matrix is on /v1/indexes.
package router

import "repro/internal/topk"

// mergeTopK gathers per-shard result lists into one fresh buffer and
// returns its canonical top-k prefix (ordered by (dist, id)), which the
// caller owns. parts may be ragged (a shard can return fewer than k
// results); the merged list is at most k long.
func mergeTopK(k int, parts [][]topk.Neighbor) []topk.Neighbor {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	buf := make([]topk.Neighbor, 0, total)
	for _, p := range parts {
		buf = append(buf, p...)
	}
	return topk.SelectK(buf, k)
}
