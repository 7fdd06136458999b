package router_test

// End-to-end test of the router's observability surface: GET /metrics
// exposes well-formed Prometheus text whose per-index, per-shard and
// per-replica families are consistent with the traffic actually routed —
// including the ejection/re-admission lifecycle of a failing replica.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
)

// scrapeRouterMetrics fetches and strictly parses the router's /metrics.
func scrapeRouterMetrics(t *testing.T, url string) *obs.TextMetrics {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content-type %q, want text/plain", ct)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := obs.ParseText(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("parsing /metrics page: %v\npage:\n%s", err, blob)
	}
	return tm
}

func routerMetric(t *testing.T, tm *obs.TextMetrics, name string, match map[string]string) float64 {
	t.Helper()
sampling:
	for _, s := range tm.Samples {
		if s.Name != name {
			continue
		}
		for k, want := range match {
			if s.Labels[k] != want {
				continue sampling
			}
		}
		return s.Value
	}
	t.Fatalf("no sample %s%v in /metrics", name, match)
	return 0
}

// TestRouterMetricsEndToEnd drives a replica group with one failing member
// through failover, ejection and re-admission, and checks that every
// transition and attempt lands in the scraped families.
func TestRouterMetricsEndToEnd(t *testing.T) {
	bad := newSyntheticReplica(t, 0)
	good := newSyntheticReplica(t, 1)
	bad.failing.Store(true)

	mreg := obs.NewRegistry()
	rt, err := router.New(router.Options{
		Replicas:      [][]string{{bad.ts.URL, good.ts.URL}},
		ShardTimeout:  2 * time.Second,
		EjectAfter:    2,
		ProbeInterval: 30 * time.Millisecond,
		Metrics:       mreg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)

	// 6 good requests (the group fails over off the bad replica) and one
	// front-tier rejection.
	for i := 0; i < 6; i++ {
		status, raw := post(t, ts.URL+"/v1/indexes/dna/search", map[string]any{"query": "A", "k": 1})
		if status != http.StatusOK {
			t.Fatalf("query %d: status %d: %s", i, status, raw)
		}
	}
	if status, _ := post(t, ts.URL+"/v1/indexes/dna/search", map[string]any{"query": "A", "k": -1}); status != http.StatusBadRequest {
		t.Fatalf("bad-k request: status %d, want 400", status)
	}

	tm := scrapeRouterMetrics(t, ts.URL)
	idx := map[string]string{"index": "dna"}
	if got := routerMetric(t, tm, "permrouter_requests_total", idx); got != 7 {
		t.Errorf("requests_total = %v, want 7", got)
	}
	if got := routerMetric(t, tm, "permrouter_request_failures_total", idx); got != 1 {
		t.Errorf("request_failures_total = %v, want 1", got)
	}
	p50, count, ok := tm.Quantile("permrouter_request_latency_seconds", idx, 0.5)
	if !ok || count != 7 {
		t.Fatalf("request latency histogram: count = %d (ok=%v), want 7", count, ok)
	}
	if p50 <= 0 {
		t.Errorf("request latency p50 = %v, want > 0", p50)
	}
	// Shard-level: every successful leg recorded latency; the failover off
	// the bad replica was counted.
	shard0 := map[string]string{"shard": "0"}
	if _, legs, ok := tm.Quantile("permrouter_shard_latency_seconds", shard0, 0.5); !ok || legs < 6 {
		t.Errorf("shard latency observations = %d (ok=%v), want >= 6", legs, ok)
	}
	if got := routerMetric(t, tm, "permrouter_shard_failovers_total", shard0); got < 1 {
		t.Errorf("shard_failovers_total = %v, want >= 1", got)
	}
	// Replica-level: the bad replica saw attempts and failures before
	// crossing the ejection threshold exactly once; the good one served.
	badRep := map[string]string{"shard": "0", "replica": "0"}
	goodRep := map[string]string{"shard": "0", "replica": "1"}
	if got := routerMetric(t, tm, "permrouter_replica_requests_total", badRep); got < 2 {
		t.Errorf("bad replica requests_total = %v, want >= 2", got)
	}
	if got := routerMetric(t, tm, "permrouter_replica_failures_total", badRep); got < 2 {
		t.Errorf("bad replica failures_total = %v, want >= 2 (ejection threshold)", got)
	}
	if got := routerMetric(t, tm, "permrouter_replica_ejections_total", badRep); got != 1 {
		t.Errorf("bad replica ejections_total = %v, want exactly 1 (transition-counted)", got)
	}
	if got := routerMetric(t, tm, "permrouter_replica_requests_total", goodRep); got < 6 {
		t.Errorf("good replica requests_total = %v, want >= 6", got)
	}
	if got := routerMetric(t, tm, "permrouter_replica_failures_total", goodRep); got != 0 {
		t.Errorf("good replica failures_total = %v, want 0", got)
	}
	if got := routerMetric(t, tm, "permrouter_uptime_seconds", nil); got <= 0 {
		t.Errorf("permrouter_uptime_seconds = %v, want > 0", got)
	}

	// /metrics is the router's one observability page.
	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /statusz: status %d, want 404", resp.StatusCode)
	}

	// Recovery: the prober re-admits the replica, counted as a transition.
	bad.failing.Store(false)
	deadline := time.Now().Add(3 * time.Second)
	for {
		tm = scrapeRouterMetrics(t, ts.URL)
		if routerMetric(t, tm, "permrouter_replica_readmissions_total", badRep) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readmissions_total never incremented after the replica recovered")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
