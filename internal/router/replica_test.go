package router_test

// End-to-end tests of the replica-group tier: each shard served by a
// *group* of identical httptest daemons, and the replication guarantees
// checked — a replica loss is invisible (byte-identical, never "partial"),
// failing replicas are ejected and re-admitted by the background prober,
// and a hedge fires against a different replica than the laggard.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/shard"
	"repro/internal/space"
	"repro/internal/vptree"
)

// bootReplicatedSet builds the S-shard DNA set with R identical serving
// processes per shard (fleet[s][r]), plus the unsharded reference daemon.
func bootReplicatedSet(t *testing.T, S, R int) (fleet [][]*httptest.Server, unsharded *httptest.Server, queries [][]byte) {
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
		group := make([]*httptest.Server, R)
		for r := range group {
			group[r] = writeServed[[]byte](t, tree, shard.Sidecar{
				Dataset: "dna", Seed: rtSeed, N: rtN, Generation: int64(10 + s),
				Shard: &shard.Info{Set: rtName, Partitioner: shard.Hash, Shards: S, Index: s},
			})
		}
		fleet = append(fleet, group)
	}
	ref, err := vptree.New[[]byte](space.NormalizedLevenshtein{}, db, vptree.Options{Seed: rtSeed})
	if err != nil {
		t.Fatal(err)
	}
	unsharded = writeServed[[]byte](t, ref, shard.Sidecar{Dataset: "dna", Seed: rtSeed, N: rtN})
	queries = append(dataset.DNA(rtSeed+1, 6, dataset.DNAOptions{}), db[:3]...)
	return fleet, unsharded, queries
}

func topologyOf(fleet [][]*httptest.Server) [][]string {
	topo := make([][]string, len(fleet))
	for s, group := range fleet {
		for _, rep := range group {
			topo[s] = append(topo[s], rep.URL)
		}
	}
	return topo
}

// bootReplicaRouter mounts a Router over the replicated fleet.
func bootReplicaRouter(t *testing.T, fleet [][]*httptest.Server, opts router.Options) *httptest.Server {
	t.Helper()
	opts.Replicas = topologyOf(fleet)
	if opts.Metrics == nil {
		opts.Metrics = obs.NewRegistry()
	}
	rt, err := router.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterReplicaDownInvisible is the acceptance bar of the replicated
// tier: killing one replica of a 2×2 fleet mid-traffic yields answers that
// stay byte-identical to the unsharded daemon's and never "partial" —
// under the *fail-closed* default, because the shard still has a live
// member. Only killing the whole group degrades, exactly as without
// replication.
func TestRouterReplicaDownInvisible(t *testing.T) {
	fleet, unsharded, queries := bootReplicatedSet(t, 2, 2)
	rt := bootReplicaRouter(t, fleet, router.Options{ShardTimeout: 5 * time.Second})

	check := func(phase string) {
		t.Helper()
		for qi, q := range queries {
			body := map[string]any{"query": string(q), "k": 5}
			wantStatus, want := post(t, searchURL(unsharded.URL), body)
			gotStatus, got := post(t, searchURL(rt.URL), body)
			if wantStatus != http.StatusOK || gotStatus != http.StatusOK {
				t.Fatalf("%s: query %d: statuses %d/%d: %s", phase, qi, wantStatus, gotStatus, got)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("%s: query %d: routed answer differs from unsharded\nrouted    %s\nunsharded %s", phase, qi, got, want)
			}
			if bytes.Contains(got, []byte("partial")) {
				t.Fatalf("%s: query %d: answer marked partial with a live replica: %s", phase, qi, got)
			}
		}
	}

	check("healthy fleet")
	fleet[0][0].Close() // kill shard 0, replica 0: the group fails over
	check("one replica down")

	// Readiness: degraded but every shard still answerable -> 200.
	hresp, err := http.Get(rt.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hraw, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with one replica down: status %d, want 200: %s", hresp.StatusCode, hraw)
	}
	if !bytes.Contains(hraw, []byte(`"down"`)) {
		t.Errorf("healthz does not report the down replica: %s", hraw)
	}

	// Kill the group's last member: now the shard is gone and the
	// fail-closed router must refuse, like the unreplicated tier.
	fleet[0][1].Close()
	status, raw := post(t, searchURL(rt.URL), map[string]any{"query": string(queries[0]), "k": 5})
	if status != http.StatusBadGateway {
		t.Fatalf("whole group down: status %d, want 502: %s", status, raw)
	}
	hresp, err = http.Get(rt.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with a whole group down: status %d, want 503", hresp.StatusCode)
	}
}

// syntheticReplica is a minimal protocol speaker whose failure mode can be
// toggled at runtime: while failing, searches and health probes answer 500.
type syntheticReplica struct {
	ts      *httptest.Server
	failing atomic.Bool
	serves  atomic.Int64 // successful search answers
}

func newSyntheticReplica(t *testing.T, id int) *syntheticReplica {
	t.Helper()
	sr := &syntheticReplica{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/indexes", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"indexes":[{"name":"dna","kind":"seqscan","space":"l2","n":1}]}`)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if sr.failing.Load() {
			http.Error(w, "wedged", http.StatusInternalServerError)
			return
		}
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("POST /v1/indexes/dna/search", func(w http.ResponseWriter, r *http.Request) {
		if sr.failing.Load() {
			http.Error(w, "wedged", http.StatusInternalServerError)
			return
		}
		sr.serves.Add(1)
		fmt.Fprintf(w, `{"index":"dna","k":1,"results":[{"id":%d,"dist":0.5}]}`, id)
	})
	sr.ts = httptest.NewServer(mux)
	t.Cleanup(sr.ts.Close)
	return sr
}

// ejectedness reads one replica's rotation state off /metrics: ejections
// and readmissions count transitions only, so their difference is 1 while
// the replica is out of the rotation and 0 while it is in.
func ejectedness(t *testing.T, routerURL string, rep map[string]string) float64 {
	t.Helper()
	tm := scrapeRouterMetrics(t, routerURL)
	return routerMetric(t, tm, "permrouter_replica_ejections_total", rep) -
		routerMetric(t, tm, "permrouter_replica_readmissions_total", rep)
}

// TestRouterEjectAndReadmit: a replica failing repeatedly leaves the
// rotation (queries keep succeeding via its group-mate), and the
// background prober re-admits it once /healthz recovers.
func TestRouterEjectAndReadmit(t *testing.T) {
	bad := newSyntheticReplica(t, 0)
	good := newSyntheticReplica(t, 1)
	bad.failing.Store(true)

	rt, err := router.New(router.Options{
		Replicas:      [][]string{{bad.ts.URL, good.ts.URL}},
		ShardTimeout:  2 * time.Second,
		EjectAfter:    2,
		ProbeInterval: 30 * time.Millisecond,
		Metrics:       obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	// Every query succeeds (failover inside the group), and the failing
	// replica's streak crosses the ejection threshold.
	for i := 0; i < 6; i++ {
		status, raw := post(t, ts.URL+"/v1/indexes/dna/search", map[string]any{"query": "A", "k": 1})
		if status != http.StatusOK {
			t.Fatalf("query %d with a failing replica: status %d: %s", i, status, raw)
		}
	}
	badRep := map[string]string{"shard": "0", "replica": "0"}
	if got := ejectedness(t, ts.URL, badRep); got != 1 {
		t.Fatalf("failing replica: ejections - readmissions = %v after repeated failures, want 1", got)
	}

	// Recovery: the prober sees /healthz answer and re-admits it.
	bad.failing.Store(false)
	deadline := time.Now().Add(3 * time.Second)
	for {
		got := ejectedness(t, ts.URL, badRep)
		if got == 0 {
			break
		}
		if got != 1 {
			t.Fatalf("ejections - readmissions = %v, want 1 then 0", got)
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered replica was not re-admitted by the prober")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Re-admitted means serving regular traffic again: the round-robin
	// must land on it within a few queries.
	before := bad.serves.Load()
	for i := 0; i < 4; i++ {
		post(t, ts.URL+"/v1/indexes/dna/search", map[string]any{"query": "A", "k": 1})
	}
	if bad.serves.Load() == before {
		t.Error("re-admitted replica got no traffic from the rotation")
	}
}

// TestRouterHedgeAcrossReplicas: with a slow and a fast replica in one
// group, the hedge fires against the *other* member and its answer wins.
func TestRouterHedgeAcrossReplicas(t *testing.T) {
	slow := newSyntheticReplica(t, 0)
	fast := newSyntheticReplica(t, 1)
	// Slow down replica 0 only.
	slowMux := http.NewServeMux()
	slowMux.HandleFunc("GET /v1/indexes", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"indexes":[{"name":"dna","kind":"seqscan","space":"l2","n":1}]}`)
	})
	slowMux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	slowMux.HandleFunc("POST /v1/indexes/dna/search", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		io.WriteString(w, `{"index":"dna","k":1,"results":[{"id":0,"dist":0.5}]}`)
	})
	slow.ts.Config.Handler = slowMux

	rt, err := router.New(router.Options{
		Replicas:     [][]string{{slow.ts.URL, fast.ts.URL}},
		ShardTimeout: 5 * time.Second,
		HedgeDelay:   20 * time.Millisecond,
		Metrics:      obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	// The round-robin cursor starts the first query on replica 0 (slow);
	// after 20ms the hedge launches replica 1 (fast), whose answer wins.
	start := time.Now()
	status, raw := post(t, ts.URL+"/v1/indexes/dna/search", map[string]any{"query": "A", "k": 1})
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("hedged search: status %d: %s", status, raw)
	}
	if !bytes.Contains(raw, []byte(`"id":1`)) {
		t.Fatalf("hedge answer should come from the fast replica: %s", raw)
	}
	if elapsed >= 300*time.Millisecond {
		t.Errorf("hedged query took %v, the slow replica's full latency", elapsed)
	}
	tm := scrapeRouterMetrics(t, ts.URL)
	if got := routerMetric(t, tm, "permrouter_replica_hedges_total", map[string]string{"shard": "0", "replica": "1"}); got < 1 {
		t.Errorf("fast replica hedges_total = %v, want >= 1", got)
	}
	if got := routerMetric(t, tm, "permrouter_replica_hedges_total", map[string]string{"shard": "0", "replica": "0"}); got != 0 {
		t.Errorf("slow replica hedges_total = %v, want 0: the hedge must go to the other member", got)
	}
}

// TestRouterMidRolloutGenerations: replicas of one group serving different
// generations (a rollout in flight) are accepted at discovery, and the
// /v1/indexes generation matrix exposes both — the signal a rollout driver
// watches for convergence.
func TestRouterMidRolloutGenerations(t *testing.T) {
	db := dataset.DNA(rtSeed, rtN, dataset.DNAOptions{})
	tree, err := vptree.New[[]byte](space.NormalizedLevenshtein{}, db, vptree.Options{Seed: rtSeed})
	if err != nil {
		t.Fatal(err)
	}
	old := writeServed[[]byte](t, tree, shard.Sidecar{Dataset: "dna", Seed: rtSeed, N: rtN, Generation: 7})
	niu := writeServed[[]byte](t, tree, shard.Sidecar{Dataset: "dna", Seed: rtSeed, N: rtN, Generation: 8})

	rt, err := router.New(router.Options{Replicas: [][]string{{old.URL, niu.URL}}})
	if err != nil {
		t.Fatalf("mid-rollout generation skew within a group must be accepted: %v", err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Indexes []struct {
			Name        string    `json:"name"`
			Generations [][]int64 `json:"generations"`
		} `json:"indexes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Indexes) != 1 {
		t.Fatalf("listed %d indexes", len(list.Indexes))
	}
	gens := list.Indexes[0].Generations
	if len(gens) != 1 || len(gens[0]) != 2 || gens[0][0] != 7 || gens[0][1] != 8 {
		t.Fatalf("generation matrix = %v, want [[7 8]]", gens)
	}
}

// TestRouterListManyReplicas: the listing re-polls every replica of a group
// however large the group is — five here, one more than the old poll's
// per-group channel room, which deadlocked the handler — and files each
// replica's generation under its own slot.
func TestRouterListManyReplicas(t *testing.T) {
	var urls []string
	for r := range 5 {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/indexes", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintf(w, `{"indexes":[{"name":"dna","kind":"seqscan","space":"l2","n":1,"generation":%d}]}`, 20+r)
		})
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := router.New(router.Options{Replicas: [][]string{urls}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/indexes", nil))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("GET /v1/indexes over 1 shard x 5 replicas did not answer in 10s")
	}
	var list struct {
		Indexes []struct {
			Generations [][]int64 `json:"generations"`
		} `json:"indexes"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Indexes) != 1 || fmt.Sprint(list.Indexes[0].Generations) != "[[20 21 22 23 24]]" {
		t.Fatalf("listing = %+v, want one index with generations [[20 21 22 23 24]]", list.Indexes)
	}
}

// TestRouterReplicasRejectDivergentContent: a group whose members serve
// different corpora (different N) is a mis-wired fleet, refused at startup.
func TestRouterReplicasRejectDivergentContent(t *testing.T) {
	db := dataset.DNA(rtSeed, rtN, dataset.DNAOptions{})
	big, err := vptree.New[[]byte](space.NormalizedLevenshtein{}, db, vptree.Options{Seed: rtSeed})
	if err != nil {
		t.Fatal(err)
	}
	small, err := vptree.New[[]byte](space.NormalizedLevenshtein{}, db[:rtN/2], vptree.Options{Seed: rtSeed})
	if err != nil {
		t.Fatal(err)
	}
	a := writeServed[[]byte](t, big, shard.Sidecar{Dataset: "dna", Seed: rtSeed, N: rtN})
	b := writeServed[[]byte](t, small, shard.Sidecar{Dataset: "dna", Seed: rtSeed, N: rtN / 2})
	if _, err := router.New(router.Options{Replicas: [][]string{{a.URL, b.URL}}}); err == nil {
		t.Fatal("router accepted a replica group whose members serve different corpora")
	}
}
