package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/shard"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/wire"
)

// TestServedConcurrentParams is the acceptance test of per-query params:
// clients hammer one shared index concurrently, each under a different
// params value (some under none), with single and batch bodies, against an
// immutable and a mutable entry — and every response must be byte-identical
// to what a dedicated index built with that client's value answers. Under
// the old apply/search/restore protocol this needed an exclusive lock; now
// nothing is shared but read-only index structure. The CI race job runs it.
func TestServedConcurrentParams(t *testing.T) {
	const k, clients = 10, 10
	dir := t.TempDir()
	sift := dataset.SIFT(e2eSeed, e2eDenseN)
	queries := append(dataset.SIFT(e2eSeed+1, 6), sift[:2]...)
	nappWith := func(minShared int) *core.NAPP[[]float32] {
		na, err := core.NewNAPP[[]float32](space.L2{}, sift, core.NAPPOptions{
			NumPivots: 64, NumPivotIndex: 16, MinShared: minShared, Seed: e2eSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return na
	}
	const servedT = 2 // the served index's build-time t
	man := shard.Sidecar{Dataset: "sift", Seed: e2eSeed, N: e2eDenseN}
	writeFixture(t, dir, "napp", nappWith(servedT), man)
	man.Mutable = true
	writeFixture(t, dir, "napp-mut", nappWith(servedT), man)

	// want[t] is what an index dedicated to t answers; clients without
	// params expect the served build-time value.
	want := map[int][][]topk.Neighbor{}
	for tv := 1; tv <= 8; tv++ {
		dedicated := nappWith(tv)
		for _, q := range queries {
			want[tv] = append(want[tv], wireNeighbors(dedicated.Search(q, k)))
		}
	}
	if reflect.DeepEqual(want[1], want[8]) {
		t.Fatal("test needs t to change the answers; pick another corpus")
	}

	reg, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	ts := httptest.NewServer(New(reg, Options{Workers: 4}).Handler())
	t.Cleanup(ts.Close)

	iters := 12
	if testing.Short() {
		iters = 4
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Clients 0..7 tune t = 1..8; clients 8 and 9 send no params.
			body := map[string]any{"k": k}
			tv := servedT
			if c < 8 {
				tv = c + 1
				body["params"] = map[string]float64{"t": float64(tv)}
			}
			for it := 0; it < iters; it++ {
				url := ts.URL + "/v1/indexes/napp/search"
				if (c+it)%2 == 1 {
					url = ts.URL + "/v1/indexes/napp-mut/search"
				}
				if it%2 == 0 {
					qi := (c + it) % len(queries)
					body["query"] = queries[qi]
					delete(body, "queries")
					status, raw := postJSON(t, url, body)
					var got wire.SearchResponse
					if status != http.StatusOK {
						t.Errorf("client %d (t=%d) single: status %d: %s", c, tv, status, raw)
					} else if json.Unmarshal(raw, &got); !reflect.DeepEqual(got.Results, want[tv][qi]) {
						t.Errorf("client %d (t=%d) single query %d on %s: served %v, dedicated index answers %v", c, tv, qi, url, got.Results, want[tv][qi])
					}
					continue
				}
				body["queries"] = queries
				delete(body, "query")
				status, raw := postJSON(t, url, body)
				var got wire.SearchResponse
				if status != http.StatusOK {
					t.Errorf("client %d (t=%d) batch: status %d: %s", c, tv, status, raw)
				} else if json.Unmarshal(raw, &got); !reflect.DeepEqual(got.Batch, want[tv]) {
					t.Errorf("client %d (t=%d) batch on %s differs from the dedicated index", c, tv, url)
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestServedGraphBatchParams: a proximity-graph batch carrying att/ef
// answers exactly like a serial loop under the same params, not under the
// index's build-time ones.
func TestServedGraphBatchParams(t *testing.T) {
	const k = 10
	dir := t.TempDir()
	sift := dataset.SIFT(e2eSeed, e2eDenseN)
	queries := dataset.SIFT(e2eSeed+1, 8)
	g, err := knngraph.NewSW[[]float32](space.L2{}, sift, knngraph.Options{NN: 6, InitAttempts: 1, Seed: e2eSeed})
	if err != nil {
		t.Fatal(err)
	}
	writeFixture(t, dir, "sw", g, shard.Sidecar{Dataset: "sift", Seed: e2eSeed, N: e2eDenseN})
	ts := bootServer(t, dir, Options{Workers: 4})

	opts := index.Options{K: k, Params: index.Params{InitAttempts: 4, EfSearch: 40}}
	var want, wantDefault [][]topk.Neighbor
	for _, q := range queries {
		want = append(want, wireNeighbors(g.SearchAppend(nil, q, opts)))
		wantDefault = append(wantDefault, wireNeighbors(g.Search(q, k)))
	}
	if reflect.DeepEqual(want, wantDefault) {
		t.Fatal("test needs att/ef to change the answers; pick another corpus")
	}

	status, raw := postJSON(t, ts.URL+"/v1/indexes/sw/search", map[string]any{
		"queries": queries, "k": k, "params": map[string]float64{"att": 4, "ef": 40},
	})
	if status != http.StatusOK {
		t.Fatalf("graph batch: status %d: %s", status, raw)
	}
	var got wire.SearchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Batch, want) {
		t.Fatalf("graph batch under att=4,ef=40 differs from its serial loop:\nserved %v\nserial %v", got.Batch, want)
	}
}

// TestServedGraphReplicasIdentical: two daemons opened over one saved
// sw-graph file are interchangeable whatever each has served before — the
// assumption behind hedged and failed-over router legs and the rollout
// golden gate. One replica answers 50 other queries first; both then answer
// the same single and batch request with byte-identical bodies.
func TestServedGraphReplicasIdentical(t *testing.T) {
	const k = 10
	dir := t.TempDir()
	sift := dataset.SIFT(e2eSeed, e2eDenseN)
	g, err := knngraph.NewSW[[]float32](space.L2{}, sift, knngraph.Options{NN: 6, Seed: e2eSeed})
	if err != nil {
		t.Fatal(err)
	}
	writeFixture(t, dir, "sw", g, shard.Sidecar{Dataset: "sift", Seed: e2eSeed, N: e2eDenseN})
	fresh, used := bootServer(t, dir, Options{Workers: 4}), bootServer(t, dir, Options{Workers: 4})
	for _, q := range dataset.SIFT(e2eSeed+2, 50) {
		if status, raw := postJSON(t, used.URL+"/v1/indexes/sw/search", map[string]any{"query": q, "k": k}); status != http.StatusOK {
			t.Fatalf("warm-up query: status %d: %s", status, raw)
		}
	}
	queries := dataset.SIFT(e2eSeed+1, 8)
	for name, body := range map[string]map[string]any{
		"single": {"query": queries[0], "k": k},
		"batch":  {"queries": queries, "k": k},
	} {
		statusA, a := postJSON(t, fresh.URL+"/v1/indexes/sw/search", body)
		statusB, b := postJSON(t, used.URL+"/v1/indexes/sw/search", body)
		if statusA != http.StatusOK || statusB != http.StatusOK {
			t.Fatalf("%s: statuses %d and %d", name, statusA, statusB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s request: replicas of one file disagree:\nfresh %s\nused  %s", name, a, b)
		}
	}
}
