package router_test

// End-to-end tests of the HTTP front tier: real serving handlers
// (internal/server) mounted on httptest listeners, a Router scattered over
// them, and the answers compared — byte for byte — against one unsharded
// daemon over the same corpus. Plus the degraded modes: a killed shard
// yields the documented fail-open "partial": true answer or a fail-closed
// 502, never a hang or panic.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/space"
	"repro/internal/vptree"
	"repro/internal/wire"
)

const (
	rtSeed = 7
	rtN    = 200 // full DNA corpus size
	rtName = "dna"
)

// writeServed writes one index file + sidecar into dir and boots a serving
// handler over it.
func writeServed[T any](t *testing.T, idx index.Index[T], man server.Manifest) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	if err := persist.SaveFile(filepath.Join(dir, rtName+persist.Ext), idx); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, rtName+".json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := server.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Options{Workers: 2, Timeout: 30 * time.Second}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// bootShardSet builds a VP-tree per hash shard of the DNA corpus, serves
// each from its own httptest daemon, and returns the shard servers plus an
// identically named unsharded daemon over the full corpus.
func bootShardSet(t *testing.T, S int) (shards []*httptest.Server, unsharded *httptest.Server, queries [][]byte) {
	t.Helper()
	db := dataset.DNA(rtSeed, rtN, dataset.DNAOptions{})
	ids, err := shard.IDs(shard.Hash, len(db), S)
	if err != nil {
		t.Fatal(err)
	}
	for s := range ids {
		tree, err := vptree.New[[]byte](space.NormalizedLevenshtein{}, shard.Subset(db, ids[s]), vptree.Options{Seed: rtSeed})
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, writeServed[[]byte](t, tree, server.Manifest{
			Dataset: "dna", Seed: rtSeed, N: rtN, Generation: int64(10 + s),
			Shard: &shard.Info{Set: rtName, Partitioner: shard.Hash, Shards: S, Index: s},
		}))
	}
	ref, err := vptree.New[[]byte](space.NormalizedLevenshtein{}, db, vptree.Options{Seed: rtSeed})
	if err != nil {
		t.Fatal(err)
	}
	unsharded = writeServed[[]byte](t, ref, server.Manifest{Dataset: "dna", Seed: rtSeed, N: rtN})
	queries = append(dataset.DNA(rtSeed+1, 6, dataset.DNAOptions{}), db[:3]...)
	return shards, unsharded, queries
}

// singles is the topology of one replica per shard, urls in shard order.
func singles(urls ...string) [][]string {
	topo := make([][]string, len(urls))
	for i, u := range urls {
		topo[i] = []string{u}
	}
	return topo
}

// bootRouter mounts a Router over the shard servers.
func bootRouter(t *testing.T, shards []*httptest.Server, opts router.Options) *httptest.Server {
	t.Helper()
	for _, s := range shards {
		opts.Replicas = append(opts.Replicas, []string{s.URL})
	}
	if opts.Metrics == nil {
		// /metrics renders the registry's counters; a private one keeps
		// other tests' traffic out of this router's samples.
		opts.Metrics = obs.NewRegistry()
	}
	rt, err := router.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// post sends a JSON body and returns status + raw response.
func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func searchURL(base string) string { return base + "/v1/indexes/" + rtName + "/search" }

// TestRouterByteIdenticalToUnsharded: for single and batch requests, the
// router's complete answer over S=3 shards is byte-identical to the
// unsharded daemon's — same JSON, same field order, same floats, ties
// resolved the same way.
func TestRouterByteIdenticalToUnsharded(t *testing.T) {
	shards, unsharded, queries := bootShardSet(t, 3)
	rt := bootRouter(t, shards, router.Options{})

	for qi, q := range queries {
		for _, k := range []int{1, 5, rtN + 9} {
			body := map[string]any{"query": string(q), "k": k}
			wantStatus, want := post(t, searchURL(unsharded.URL), body)
			gotStatus, got := post(t, searchURL(rt.URL), body)
			if wantStatus != http.StatusOK || gotStatus != http.StatusOK {
				t.Fatalf("query %d k=%d: statuses %d/%d", qi, k, wantStatus, gotStatus)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("query %d k=%d: routed answer differs from unsharded\nrouted    %s\nunsharded %s", qi, k, got, want)
			}
		}
	}

	// Batch: one request with every query.
	enc := make([]any, len(queries))
	for i, q := range queries {
		enc[i] = string(q)
	}
	body := map[string]any{"queries": enc, "k": 7}
	_, want := post(t, searchURL(unsharded.URL), body)
	_, got := post(t, searchURL(rt.URL), body)
	if !bytes.Equal(want, got) {
		t.Fatalf("batch: routed answer differs from unsharded\nrouted    %s\nunsharded %s", got, want)
	}
}

// TestRouterBatchMatchesSerial: a batch through the router equals its
// queries sent one at a time.
func TestRouterBatchMatchesSerial(t *testing.T) {
	shards, _, queries := bootShardSet(t, 2)
	rt := bootRouter(t, shards, router.Options{})
	const k = 5
	enc := make([]any, len(queries))
	for i, q := range queries {
		enc[i] = string(q)
	}
	_, raw := post(t, searchURL(rt.URL), map[string]any{"queries": enc, "k": k})
	var batch struct {
		Batch []json.RawMessage `json:"batch"`
	}
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatalf("batch response: %v: %s", err, raw)
	}
	if len(batch.Batch) != len(queries) {
		t.Fatalf("batch answered %d queries, want %d", len(batch.Batch), len(queries))
	}
	for i, q := range queries {
		_, sraw := post(t, searchURL(rt.URL), map[string]any{"query": string(q), "k": k})
		var single struct {
			Results json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(sraw, &single); err != nil {
			t.Fatal(err)
		}
		if string(single.Results) != string(batch.Batch[i]) {
			t.Errorf("query %d: batch %s, serial %s", i, batch.Batch[i], single.Results)
		}
	}
}

// TestRouterShardDown covers both degraded modes when a shard dies
// mid-flight.
func TestRouterShardDown(t *testing.T) {
	for _, failOpen := range []bool{true, false} {
		t.Run(fmt.Sprintf("failOpen=%v", failOpen), func(t *testing.T) {
			shards, unsharded, queries := bootShardSet(t, 3)
			rt := bootRouter(t, shards, router.Options{FailOpen: failOpen, ShardTimeout: 5 * time.Second})
			q := string(queries[0])

			// Healthy first: the answer is complete and unmarked.
			status, raw := post(t, searchURL(rt.URL), map[string]any{"query": q, "k": 5})
			if status != http.StatusOK || bytes.Contains(raw, []byte("partial")) {
				t.Fatalf("healthy answer: status %d body %s", status, raw)
			}

			shards[1].Close() // kill shard 1

			status, raw = post(t, searchURL(rt.URL), map[string]any{"query": q, "k": 5})
			if !failOpen {
				if status != http.StatusBadGateway {
					t.Fatalf("fail-closed: status %d, want 502: %s", status, raw)
				}
				return
			}
			if status != http.StatusOK {
				t.Fatalf("fail-open: status %d: %s", status, raw)
			}
			var resp struct {
				Results      []struct{ ID uint32 } `json:"results"`
				Partial      bool                  `json:"partial"`
				FailedShards []int                 `json:"failed_shards"`
			}
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			if !resp.Partial || len(resp.FailedShards) != 1 || resp.FailedShards[0] != 1 {
				t.Fatalf("fail-open degraded answer = %s", raw)
			}
			if len(resp.Results) == 0 {
				t.Fatalf("fail-open answer carries no surviving results: %s", raw)
			}
			// The partial answer must be a subset of the truth: every
			// returned (id, dist) appears in the unsharded answer for a
			// large-enough k.
			_, uraw := post(t, searchURL(unsharded.URL), map[string]any{"query": q, "k": rtN})
			for _, nb := range resp.Results {
				if !bytes.Contains(uraw, []byte(fmt.Sprintf(`{"id":%d,`, nb.ID))) {
					t.Errorf("partial answer id %d not in the unsharded answer", nb.ID)
				}
			}

			// Readiness reflects the dead shard.
			hresp, err := http.Get(rt.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			hresp.Body.Close()
			if hresp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("healthz with a dead shard: status %d, want 503", hresp.StatusCode)
			}
		})
	}
}

// TestRouterClientErrors: malformed requests are 400s (the shard's verdict
// propagated), unknown indexes 404 — never shard failures.
func TestRouterClientErrors(t *testing.T) {
	shards, _, _ := bootShardSet(t, 2)
	rt := bootRouter(t, shards, router.Options{})
	for name, body := range map[string]any{
		"no query":          map[string]any{"k": 3},
		"negative k":        map[string]any{"query": "ACGT", "k": -1},
		"wrong query shape": map[string]any{"query": 42},
	} {
		if status, raw := post(t, searchURL(rt.URL), body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", name, status, raw)
		}
	}
	if status, _ := post(t, rt.URL+"/v1/indexes/nope/search", map[string]any{"query": "ACGT"}); status != http.StatusNotFound {
		t.Errorf("unknown index: status %d, want 404", status)
	}
	// Counters: client errors must not show up as shard failures.
	tm := scrapeRouterMetrics(t, rt.URL)
	for _, s := range []string{"0", "1"} {
		if got := routerMetric(t, tm, "permrouter_replica_failures_total", map[string]string{"shard": s, "replica": "0"}); got != 0 {
			t.Errorf("shard %s counted %v failures from client errors", s, got)
		}
	}
}

// TestRouterNeighborLimit: the router refuses a request whose k × queries
// exceeds wire.MaxNeighbors after k is capped at the full corpus size, before
// anything is scattered, and counts it as a failed request.
func TestRouterNeighborLimit(t *testing.T) {
	shards, _, _ := bootShardSet(t, 2)
	rt := bootRouter(t, shards, router.Options{})
	queries := make([]string, wire.MaxNeighbors/rtN+1)
	for i := range queries {
		queries[i] = "ACGT"
	}
	if status, raw := post(t, searchURL(rt.URL), map[string]any{"queries": queries, "k": 1 << 40}); status != http.StatusBadRequest {
		t.Fatalf("k × queries = n × %d: status %d: %s", len(queries), status, raw)
	}
	tm := scrapeRouterMetrics(t, rt.URL)
	if got := routerMetric(t, tm, "permrouter_request_failures_total", map[string]string{"index": rtName}); got != 1 {
		t.Errorf("request_failures_total = %v, want 1", got)
	}
	for _, s := range []string{"0", "1"} {
		if got := routerMetric(t, tm, "permrouter_replica_requests_total", map[string]string{"shard": s, "replica": "0"}); got != 0 {
			t.Errorf("shard %s saw %v requests, want 0 (refused before the scatter)", s, got)
		}
	}
}

// TestRouterList: the merged index listing reports the full corpus size and
// the per-shard × per-replica generation matrix.
func TestRouterList(t *testing.T) {
	shards, _, _ := bootShardSet(t, 3)
	rt := bootRouter(t, shards, router.Options{})
	resp, err := http.Get(rt.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Indexes []struct {
			Name        string    `json:"name"`
			N           uint64    `json:"n"`
			Shards      int       `json:"shards"`
			Generations [][]int64 `json:"generations"`
		} `json:"indexes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Indexes) != 1 {
		t.Fatalf("listed %d indexes", len(list.Indexes))
	}
	got := list.Indexes[0]
	if got.Name != rtName || got.N != rtN || got.Shards != 3 {
		t.Fatalf("listing = %+v", got)
	}
	if len(got.Generations) != 3 {
		t.Fatalf("generations = %v", got.Generations)
	}
	for s, want := range []int64{10, 11, 12} {
		if len(got.Generations[s]) != 1 || got.Generations[s][0] != want {
			t.Fatalf("shard %d generations = %v, want [%d]", s, got.Generations[s], want)
		}
	}
}

// TestRouterDiscoveryRejectsMiswiring: backends passed out of shard order
// must be refused at startup (the stamp's index contradicts the position).
func TestRouterDiscoveryRejectsMiswiring(t *testing.T) {
	shards, _, _ := bootShardSet(t, 2)
	if _, err := router.New(router.Options{Replicas: singles(shards[1].URL, shards[0].URL)}); err == nil {
		t.Fatal("router accepted backends wired out of shard order")
	}
	// Wrong backend count for the stamped set size.
	if _, err := router.New(router.Options{Replicas: singles(shards[0].URL)}); err == nil {
		t.Fatal("router accepted 1 backend for a 2-shard set")
	}
}

// TestRouterWrongShapePayload: a version-skewed backend answering 200 with
// the wrong response shape is a shard failure, not a panic (short batch
// must not index out of range) and not a silent truncation (a single-query
// answer missing "results" must not merge as empty).
func TestRouterWrongShapePayload(t *testing.T) {
	// A broken shard: claims the protocol, answers single queries with a
	// batch shape and batches with too few entries.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/indexes", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"indexes":[{"name":"dna","kind":"seqscan","space":"l2","n":1}]}`)
	})
	mux.HandleFunc("POST /v1/indexes/dna/search", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"index":"dna","k":1,"batch":[[{"id":0,"dist":0}]]}`)
	})
	broken := httptest.NewServer(mux)
	defer broken.Close()
	// A healthy synthetic shard.
	hmux := http.NewServeMux()
	hmux.HandleFunc("GET /v1/indexes", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"indexes":[{"name":"dna","kind":"seqscan","space":"l2","n":1}]}`)
	})
	hmux.HandleFunc("POST /v1/indexes/dna/search", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Query   json.RawMessage   `json:"query"`
			Queries []json.RawMessage `json:"queries"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		if req.Query != nil {
			io.WriteString(w, `{"index":"dna","k":1,"results":[{"id":1,"dist":0.5}]}`)
			return
		}
		fmt.Fprintf(w, `{"index":"dna","k":1,"batch":[`)
		for i := range req.Queries {
			if i > 0 {
				io.WriteString(w, ",")
			}
			io.WriteString(w, `[{"id":1,"dist":0.5}]`)
		}
		io.WriteString(w, `]}`)
	})
	healthy := httptest.NewServer(hmux)
	defer healthy.Close()

	rt, err := router.New(router.Options{Replicas: singles(broken.URL, healthy.URL), FailOpen: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	// Single query: the broken shard's batch-shaped answer must be a
	// counted failure, yielding a partial answer from the healthy shard.
	status, raw := post(t, ts.URL+"/v1/indexes/dna/search", map[string]any{"query": "A", "k": 1})
	if status != http.StatusOK {
		t.Fatalf("single: status %d: %s", status, raw)
	}
	var single struct {
		Results      []struct{ ID uint32 } `json:"results"`
		Partial      bool                  `json:"partial"`
		FailedShards []int                 `json:"failed_shards"`
	}
	if err := json.Unmarshal(raw, &single); err != nil {
		t.Fatal(err)
	}
	if !single.Partial || len(single.FailedShards) != 1 || single.FailedShards[0] != 0 {
		t.Fatalf("wrong-shape single answer not degraded: %s", raw)
	}
	if len(single.Results) != 1 || single.Results[0].ID != 1 {
		t.Fatalf("surviving shard's answer lost: %s", raw)
	}

	// Batch of 2: the broken shard returns 1 entry; the router must not
	// panic and must mark the shard failed.
	status, raw = post(t, ts.URL+"/v1/indexes/dna/search", map[string]any{"queries": []any{"A", "C"}, "k": 1})
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, raw)
	}
	var batch struct {
		Batch        [][]struct{ ID uint32 } `json:"batch"`
		Partial      bool                    `json:"partial"`
		FailedShards []int                   `json:"failed_shards"`
	}
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	if !batch.Partial || len(batch.FailedShards) != 1 || batch.FailedShards[0] != 0 || len(batch.Batch) != 2 {
		t.Fatalf("wrong-shape batch answer not degraded: %s", raw)
	}

	// Fail-closed: the same broken shard must 502, never silently drop.
	rtc, err := router.New(router.Options{Replicas: singles(broken.URL, healthy.URL)})
	if err != nil {
		t.Fatal(err)
	}
	tsc := httptest.NewServer(rtc.Handler())
	defer tsc.Close()
	if status, raw := post(t, tsc.URL+"/v1/indexes/dna/search", map[string]any{"query": "A", "k": 1}); status != http.StatusBadGateway {
		t.Fatalf("fail-closed wrong shape: status %d, want 502: %s", status, raw)
	}
}

// TestRouterHedging: a shard that answers slowly trips the hedge; the
// request still succeeds and the hedge is counted.
func TestRouterHedging(t *testing.T) {
	// A synthetic slow shard speaking just enough of the protocol.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/indexes", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"indexes":[{"name":"dna","kind":"seqscan","space":"l2","n":1}]}`)
	})
	mux.HandleFunc("POST /v1/indexes/dna/search", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond)
		io.WriteString(w, `{"index":"dna","k":1,"results":[{"id":0,"dist":0}]}`)
	})
	slow := httptest.NewServer(mux)
	defer slow.Close()

	rt, err := router.New(router.Options{
		Replicas:     singles(slow.URL),
		ShardTimeout: 5 * time.Second,
		HedgeDelay:   20 * time.Millisecond,
		Metrics:      obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	status, raw := post(t, ts.URL+"/v1/indexes/dna/search", map[string]any{"query": "A", "k": 1})
	if status != http.StatusOK {
		t.Fatalf("hedged search: status %d: %s", status, raw)
	}
	tm := scrapeRouterMetrics(t, ts.URL)
	if got := routerMetric(t, tm, "permrouter_replica_hedges_total", map[string]string{"shard": "0", "replica": "0"}); got < 1 {
		t.Errorf("hedge did not fire against a 150ms shard with a 20ms hedge delay")
	}
}
