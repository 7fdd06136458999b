// Package indextest is the cross-index conformance suite: a set of
// behavioral properties every index.Index implementation in this repository
// must satisfy, exercised over every registered kind by the tests in this
// package (and reusable by future index packages). The properties are the
// interface contract written as code:
//
//   - results are ordered by increasing distance, carry true distances, and
//     never repeat or fabricate ids;
//   - k edge cases hold: k <= 0 returns nothing, k = 1 returns the single
//     best candidate, k > n returns at most n results;
//   - an answer is a pure function of (index, query, options): asking twice
//     answers the same, a concurrent batch via engine.SearchBatch returns
//     exactly what a serial Search loop would in whatever order the queries
//     arrive, and answering queries leaves the index's saved bytes unchanged
//     — what makes replicas of one file interchangeable;
//   - a traced search accounts for at least one exact distance per result;
//   - Search is safe for concurrent use (validated under the CI race job);
//   - query-time params are per-query values: a shared index queried under
//     params p answers byte-identically to a dedicated index built with p
//     (ParamsMatchDedicated).
//
// The roundtrip suite (roundtrip.go) extends the contract to persistence:
// Save then Load must yield an index whose every answer — and persisted byte
// stream — is identical to the original's. The identity suites
// (sharded_test.go, tiered_test.go) extend it to the serving stack: shards
// served as index.Subsets and merged, or an lsm.Tree in front of a base,
// must answer exactly as one index over the same live set.
package indextest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/space"
	"repro/internal/topk"
)

// Builder constructs a fresh index over the data set under test. It is
// invoked once per property and, by ParamsMatchDedicated and the golden
// suites, must be deterministic enough that equality checks across instances
// are meaningful (fix all seeds).
type Builder[T any] func() (index.Index[T], error)

// Conformance runs every behavioral property against the index built by
// build over (sp, data), probing with the given queries. Queries should
// include both held-out points and points of the data set itself.
func Conformance[T any](t *testing.T, sp space.Space[T], data []T, queries []T, build Builder[T]) {
	t.Helper()
	if len(data) == 0 || len(queries) == 0 {
		t.Fatal("indextest: empty data or queries")
	}

	built := func(t *testing.T) index.Index[T] {
		t.Helper()
		idx, err := build()
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	const k = 10
	serial := func(idx index.Index[T]) [][]topk.Neighbor {
		out := make([][]topk.Neighbor, len(queries))
		for i, q := range queries {
			out[i] = idx.Search(q, k)
		}
		return out
	}

	t.Run("results-well-formed", func(t *testing.T) {
		idx := built(t)
		for _, k := range []int{1, 2, 10} {
			for qi, q := range queries {
				checkWellFormed(t, sp, data, q, idx.Search(q, k), k, fmt.Sprintf("query %d k=%d", qi, k))
			}
		}
	})

	t.Run("k-edge-cases", func(t *testing.T) {
		idx := built(t)
		q := queries[0]
		if got := idx.Search(q, 0); len(got) != 0 {
			t.Errorf("Search(q, 0) returned %d results, want 0", len(got))
		}
		if got := idx.Search(q, -3); len(got) != 0 {
			t.Errorf("Search(q, -3) returned %d results, want 0", len(got))
		}
		// Approximate filter methods may exhaust their candidate set and
		// return fewer than k results (the interface allows it), but k=1
		// must yield a result whenever a larger k over the same candidates
		// does — an index that answers at k=20 but not at k=1 is broken.
		one := idx.Search(q, 1)
		if len(one) > 1 {
			t.Errorf("Search(q, 1) returned %d results", len(one))
		}
		big := len(data) + 7
		got := idx.Search(q, big)
		if len(got) > len(data) {
			t.Errorf("Search(q, %d) returned %d results, more than the %d indexed points", big, len(got), len(data))
		}
		if len(one) == 0 && len(got) > 0 {
			t.Errorf("Search(q, 1) found nothing but Search(q, %d) found %d results", big, len(got))
		}
		checkWellFormed(t, sp, data, q, got, big, fmt.Sprintf("k=%d > n", big))
	})

	t.Run("search-is-repeatable", func(t *testing.T) {
		idx := built(t)
		for i, q := range queries {
			diffResults(t, idx.Search(q, k), idx.Search(q, k), fmt.Sprintf("query %d asked twice", i))
		}
	})

	// batchMatchesSerial answers the queries in the given order through the
	// batch engine and holds each answer to the in-order serial loop's.
	batchMatchesSerial := func(t *testing.T, order []int) {
		idx := built(t)
		want := serial(idx)
		batch := make([]T, len(order))
		for i, j := range order {
			batch[i] = queries[j]
		}
		got, err := engine.SearchBatch(engine.NewPool(4), idx, batch, index.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		for i, j := range order {
			diffResults(t, want[j], got[i], fmt.Sprintf("query %d at batch position %d", j, i))
		}
	}
	inOrder := make([]int, len(queries))
	for i := range inOrder {
		inOrder[i] = i
	}

	t.Run("batch-matches-serial", func(t *testing.T) {
		batchMatchesSerial(t, inOrder)
	})

	t.Run("batch-ignores-query-order", func(t *testing.T) {
		// What a router's hedged or failed-over leg relies on: a query's
		// answer does not depend on which queries the index saw before it.
		batchMatchesSerial(t, rand.New(rand.NewSource(1)).Perm(len(queries)))
	})

	t.Run("save-ignores-queries", func(t *testing.T) {
		idx := built(t)
		var before, after bytes.Buffer
		if err := persist.Save(&before, idx); err != nil {
			t.Fatalf("Save: %v", err)
		}
		serial(idx)
		if err := persist.Save(&after, idx); err != nil {
			t.Fatalf("Save after %d queries: %v", len(queries), err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Errorf("answering %d queries changed the index's saved bytes", len(queries))
		}
	})

	t.Run("trace-counts-distances", func(t *testing.T) {
		// Every result carries an exact distance somebody evaluated; an
		// index that reports fewer has a stage the trace does not see.
		idx := built(t)
		for i, q := range queries {
			var tr obs.QueryTrace
			res := idx.SearchAppend(nil, q, index.Options{K: k, Trace: &tr})
			if tr.RefineDistances < int64(len(res)) {
				t.Errorf("query %d: %d results, trace reports %d exact distances", i, len(res), tr.RefineDistances)
			}
		}
	})

	t.Run("search-append-matches-search", func(t *testing.T) {
		// The appending zero-allocation entry point must answer exactly
		// like Search, including when dst already carries earlier results
		// that must survive.
		idx := built(t)
		sentinel := topk.Neighbor{ID: ^uint32(0), Dist: -1}
		dst := make([]topk.Neighbor, 0, 64)
		for qi, q := range queries {
			want := idx.Search(q, k)
			dst = append(dst[:0], sentinel)
			dst = idx.SearchAppend(dst, q, index.Options{K: k})
			if len(dst) == 0 || dst[0] != sentinel {
				t.Fatalf("query %d: SearchAppend clobbered existing dst contents", qi)
			}
			diffResults(t, want, dst[1:], fmt.Sprintf("search-append query %d", qi))
		}
	})

	t.Run("concurrent-search", func(t *testing.T) {
		// No assertions on answers — the property is the absence of data
		// races (the CI race job runs this package under -race) and
		// panics when many goroutines share one index.
		idx := built(t)
		const goroutines = 8
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i, q := range queries {
					idx.Search(q, 1+(g+i)%7)
				}
			}(g)
		}
		wg.Wait()
	})
}

// ParamsMatchDedicated asserts the per-query-params contract for one kind:
// an index built with its defaults and queried under params answers every
// query byte-identically to an index whose build options bake the same
// values in — through a serial SearchAppend loop and through the batch
// engine alike. Both builders must be deterministic and differ only in the
// knobs params names.
func ParamsMatchDedicated[T any](t *testing.T, queries []T, params index.Params, shared, dedicated Builder[T]) {
	t.Helper()
	const k = 10
	build := func(b Builder[T]) index.Index[T] {
		idx, err := b()
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	ded, idx := build(dedicated), build(shared)
	opts := index.Options{K: k, Params: params}
	want := make([][]topk.Neighbor, len(queries))
	changed := false
	for i, q := range queries {
		want[i] = ded.Search(q, k)
		diffResults(t, want[i], idx.SearchAppend(nil, q, opts), fmt.Sprintf("query %d under %+v", i, params))
		changed = changed || !slices.Equal(want[i], idx.Search(q, k))
	}
	if !changed {
		t.Errorf("params %+v change no answer on this corpus; the property is vacuous", params)
	}
	got, err := engine.SearchBatch(engine.NewPool(4), idx, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queries {
		diffResults(t, want[i], got[i], fmt.Sprintf("batch query %d under %+v", i, params))
	}
}

// checkWellFormed asserts the core result invariants: at most k entries,
// no duplicate or out-of-range ids, distances non-decreasing and equal to
// the true distance between the returned point and the query.
func checkWellFormed[T any](t *testing.T, sp space.Space[T], data []T, query T, res []topk.Neighbor, k int, ctx string) {
	t.Helper()
	if len(res) > k {
		t.Errorf("%s: %d results exceed k=%d", ctx, len(res), k)
	}
	seen := make(map[uint32]struct{}, len(res))
	for i, nb := range res {
		if int(nb.ID) >= len(data) {
			t.Errorf("%s: result %d has id %d, data set holds %d points", ctx, i, nb.ID, len(data))
			continue
		}
		if _, dup := seen[nb.ID]; dup {
			t.Errorf("%s: id %d returned twice", ctx, nb.ID)
		}
		seen[nb.ID] = struct{}{}
		if i > 0 && nb.Dist < res[i-1].Dist {
			t.Errorf("%s: distances not ordered: res[%d]=%g < res[%d]=%g", ctx, i, nb.Dist, i-1, res[i-1].Dist)
		}
		if td := sp.Distance(data[nb.ID], query); !sameDist(nb.Dist, td) {
			t.Errorf("%s: result %d reports distance %g, true distance is %g", ctx, i, nb.Dist, td)
		}
	}
}

// sameDist compares a reported distance with a recomputed one. Both come
// from the same Distance implementation over the same arguments, so exact
// equality is expected; NaN never is.
func sameDist(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return a == b
}

// diffResults asserts two result lists are identical (ids and distances).
func diffResults(t *testing.T, want, got []topk.Neighbor, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: got %d results, want %d", ctx, len(got), len(want))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: result %d = {id %d, dist %g}, want {id %d, dist %g}",
				ctx, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}
