package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vecmath"
	"repro/internal/wire"
)

// End-to-end tests of the observability surface: GET /metrics exposes
// well-formed Prometheus text whose per-index counters, stage attribution
// and latency histograms are consistent with the requests actually served,
// and the slow-query log names the per-stage breakdown.

// scrapeMetrics fetches and strictly parses GET /metrics.
func scrapeMetrics(t *testing.T, ts *httptest.Server) *obs.TextMetrics {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
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

// metricValue returns the value of the sample of family name whose labels
// include every pair in match.
func metricValue(t *testing.T, tm *obs.TextMetrics, name string, match map[string]string) float64 {
	t.Helper()
	v, ok := findMetric(tm, name, match)
	if !ok {
		t.Fatalf("no sample %s%v in /metrics", name, match)
	}
	return v
}

func findMetric(tm *obs.TextMetrics, name string, match map[string]string) (float64, bool) {
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
		return s.Value, true
	}
	return 0, false
}

// TestSearchNeighborLimit: a request whose k × queries exceeds
// wire.MaxNeighbors after k is capped at the corpus size is a 400 that counts
// as a failed request answering no queries; a 64-query batch at k = n is
// admitted.
func TestSearchNeighborLimit(t *testing.T) {
	dir, _, dna := buildFixtures(t)
	ts := bootServer(t, dir, Options{Metrics: obs.NewRegistry()})
	url := ts.URL + "/v1/indexes/dna-vptree/search"
	q := dna.encode(dna.queries[0])
	queries := make([]any, wire.MaxNeighbors/e2eDNAN+1)
	for i := range queries {
		queries[i] = q
	}
	// k is capped at n = e2eDNAN first, so a huge k is refused for the
	// product, not for k alone.
	if status, raw := postJSON(t, url, map[string]any{"queries": queries, "k": 1 << 40}); status != http.StatusBadRequest {
		t.Fatalf("k × queries = n × %d: status %d: %s", len(queries), status, raw)
	}
	if status, raw := postJSON(t, url, map[string]any{"queries": queries[:64], "k": e2eDNAN}); status != http.StatusOK {
		t.Fatalf("k × queries = n × 64: status %d: %s", status, raw)
	}
	tm := scrapeMetrics(t, ts)
	idx := map[string]string{"index": "dna-vptree"}
	if got := metricValue(t, tm, "permserve_search_failures_total", idx); got != 1 {
		t.Errorf("failures_total = %v, want 1", got)
	}
	if got := metricValue(t, tm, "permserve_queries_total", idx); got != 64 {
		t.Errorf("queries_total = %v, want 64 (the refused request answers none)", got)
	}
}

// TestMetricsEndToEnd drives single and batch searches through the HTTP
// stack and checks the scraped families against the known request shape.
func TestMetricsEndToEnd(t *testing.T) {
	dir, dense, _ := buildFixtures(t)
	mreg := obs.NewRegistry()
	ts := bootServer(t, dir, Options{Workers: 4, Metrics: mreg})
	const k = 5
	name := "sift-napp"
	url := ts.URL + "/v1/indexes/" + name + "/search"

	if status, raw := postJSON(t, url, map[string]any{"query": dense.queries[0], "k": k}); status != http.StatusOK {
		t.Fatalf("single search: status %d: %s", status, raw)
	}
	batch := []any{dense.queries[1], dense.queries[2], dense.queries[3], dense.queries[4]}
	if status, raw := postJSON(t, url, map[string]any{"queries": batch, "k": k}); status != http.StatusOK {
		t.Fatalf("batch search: status %d: %s", status, raw)
	}
	// One request that fails (bad body) must count as request + failure but
	// contribute no queries or trace.
	if status, _ := postJSON(t, url, map[string]any{}); status != http.StatusBadRequest {
		t.Fatalf("bad search: status %d, want 400", status)
	}
	if status, raw := postJSON(t, ts.URL+"/v1/indexes/"+name+"/reload", nil); status != http.StatusOK {
		t.Fatalf("reload: status %d: %s", status, raw)
	}

	tm := scrapeMetrics(t, ts)
	idx := map[string]string{"index": name}
	if got := metricValue(t, tm, "permserve_search_requests_total", idx); got != 3 {
		t.Errorf("requests_total = %v, want 3", got)
	}
	if got := metricValue(t, tm, "permserve_search_failures_total", idx); got != 1 {
		t.Errorf("failures_total = %v, want 1", got)
	}
	if got := metricValue(t, tm, "permserve_queries_total", idx); got != 5 {
		t.Errorf("queries_total = %v, want 5 (1 single + 4 batch)", got)
	}
	if got := metricValue(t, tm, "permserve_reloads_total", idx); got != 1 {
		t.Errorf("reloads_total = %v, want 1", got)
	}
	// The latency histogram saw exactly the three requests; its quantiles
	// are positive and ordered.
	p50, count, ok := tm.Quantile("permserve_search_latency_seconds", idx, 0.5)
	if !ok || count != 3 {
		t.Fatalf("latency histogram: count = %d (ok=%v), want 3 observations", count, ok)
	}
	p99, _, _ := tm.Quantile("permserve_search_latency_seconds", idx, 0.99)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("latency quantiles p50=%v p99=%v, want 0 < p50 <= p99", p50, p99)
	}
	// Stage attribution: every traced query contributed filter candidates
	// and refine evaluations (5 queries, each with at least one candidate),
	// and the filter/refine/merge stages accumulated time.
	if got := metricValue(t, tm, "permserve_filter_candidates_total", idx); got < 5 {
		t.Errorf("filter_candidates_total = %v, want >= 5", got)
	}
	refined := metricValue(t, tm, "permserve_refine_distances_total", idx)
	if refined < 5 {
		t.Errorf("refine_distances_total = %v, want >= 5", refined)
	}
	cands := metricValue(t, tm, "permserve_filter_candidates_total", idx)
	if refined > cands {
		t.Errorf("refine_distances_total %v exceeds filter_candidates_total %v: refine must only see filtered candidates", refined, cands)
	}
	// Each of the 5 queries measured all m of its pivots: under L2 pivot
	// selection screens none out.
	pivots := metricValue(t, tm, "permserve_pivot_distances_total", idx)
	if m := float64(dense.idx.(*core.NAPP[[]float32]).Options().NumPivots); pivots != 5*m {
		t.Errorf("pivot_distances_total = %v, want 5·%v", pivots, m)
	}
	for _, stage := range []string{"filter", "refine"} {
		if got := metricValue(t, tm, "permserve_stage_ns_total", map[string]string{"index": name, "stage": stage}); got <= 0 {
			t.Errorf("stage_ns_total{stage=%q} = %v, want > 0", stage, got)
		}
	}
	// The untouched fixture has traffic-free families too: present, zero.
	if got := metricValue(t, tm, "permserve_search_requests_total", map[string]string{"index": "dna-vptree"}); got != 0 {
		t.Errorf("idle index requests_total = %v, want 0", got)
	}
	if got := metricValue(t, tm, "permserve_reloads_total", map[string]string{"index": "dna-vptree"}); got != 0 {
		t.Errorf("idle index reloads_total = %v, want 0", got)
	}
	// Process-level gauges are live (one forced cycle, so the GC count is too).
	runtime.GC()
	tm = scrapeMetrics(t, ts)
	for _, g := range []string{"permserve_goroutines", "permserve_heap_alloc_bytes", "permserve_heap_allocs", "permserve_gc_cycles"} {
		if got := metricValue(t, tm, g, nil); got <= 0 {
			t.Errorf("%s = %v, want > 0", g, got)
		}
	}
	// The kernel arm chosen at start is one info sample, labelled as the
	// startup line names it.
	if got := metricValue(t, tm, "permserve_kernel_info", map[string]string{"arm": vecmath.Arm()}); got != 1 {
		t.Errorf("permserve_kernel_info{arm=%q} = %v, want 1", vecmath.Arm(), got)
	}
}

// TestMetricsMutableTierAttribution checks that a search over a mutable
// entry (base + sealed tier + memtable) attributes time to the lsm_*
// stages.
func TestMetricsMutableTierAttribution(t *testing.T) {
	dir, _ := mutableFixtureDir(t)
	reg, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	mreg := obs.NewRegistry()
	ts := httptest.NewServer(New(reg, Options{Workers: 2, Metrics: mreg}).Handler())
	t.Cleanup(ts.Close)
	name := "sift-mut"

	// Shape the tree: one sealed tier, then a live memtable.
	obj := make([]float32, 128)
	obj[0] = 1
	mustAdd(t, ts, name, map[string]any{"object": obj})
	mustFlush(t, ts, name)
	obj[1] = 2
	mustAdd(t, ts, name, map[string]any{"object": obj})

	q := make([]float32, 128)
	if status, raw := postJSON(t, ts.URL+"/v1/indexes/"+name+"/search", map[string]any{"query": q, "k": 3}); status != http.StatusOK {
		t.Fatalf("search: status %d: %s", status, raw)
	}
	// A batch goes through the engine fan-out's per-worker traces.
	if status, raw := postJSON(t, ts.URL+"/v1/indexes/"+name+"/search", map[string]any{"queries": []any{q, q}, "k": 3}); status != http.StatusOK {
		t.Fatalf("batch search: status %d: %s", status, raw)
	}

	tm := scrapeMetrics(t, ts)
	for _, stage := range []string{"lsm_base", "lsm_tiers", "lsm_memtable"} {
		got := metricValue(t, tm, "permserve_stage_ns_total", map[string]string{"index": name, "stage": stage})
		if got <= 0 {
			t.Errorf("stage_ns_total{stage=%q} = %v, want > 0 with a sealed tier and live memtable", stage, got)
		}
	}
	if got := metricValue(t, tm, "permserve_refine_distances_total", map[string]string{"index": name}); got <= 0 {
		t.Errorf("refine_distances_total = %v, want > 0 (components share the trace)", got)
	}
}

// TestSlowQueryLog checks the threshold + rate-limit contract: with a
// zero-ish threshold every request is slow (the counter sees each one),
// while the log emits a single JSON line naming the stage breakdown.
func TestSlowQueryLog(t *testing.T) {
	dir, dense, _ := buildFixtures(t)
	mreg := obs.NewRegistry()
	var buf bytes.Buffer
	lg := log.New(&buf, "", 0)
	ts := bootServer(t, dir, Options{
		Workers:            2,
		Metrics:            mreg,
		Log:                lg,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryEvery:     time.Hour, // admit exactly one line
	})
	name := "sift-napp"
	url := ts.URL + "/v1/indexes/" + name + "/search"
	for i := 0; i < 3; i++ {
		if status, raw := postJSON(t, url, map[string]any{"query": dense.queries[i], "k": 4}); status != http.StatusOK {
			t.Fatalf("search %d: status %d: %s", i, status, raw)
		}
	}

	tm := scrapeMetrics(t, ts)
	if got := metricValue(t, tm, "permserve_slow_queries_total", map[string]string{"index": name}); got != 3 {
		t.Errorf("slow_queries_total = %v, want 3 (every request crossed the threshold)", got)
	}
	lines := 0
	var line slowQueryLine
	for _, l := range strings.Split(buf.String(), "\n") {
		_, blob, found := strings.Cut(l, "slow_query ")
		if !found {
			continue
		}
		lines++
		if err := json.Unmarshal([]byte(blob), &line); err != nil {
			t.Fatalf("slow-query line is not JSON: %v\nline: %s", err, l)
		}
	}
	if lines != 1 {
		t.Fatalf("slow-query log emitted %d lines, want exactly 1 (rate limit)", lines)
	}
	if line.Index != name || line.Queries != 1 || line.K != 4 {
		t.Errorf("slow-query line = %+v, want index=%s queries=1 k=4", line, name)
	}
	if line.ElapsedUs <= 0 || line.FilterCandidates <= 0 || line.RefineDistances <= 0 || line.PivotDistances <= 0 {
		t.Errorf("slow-query line missing trace detail: %+v", line)
	}
	if line.StageUs["filter"] <= 0 || line.StageUs["refine"] <= 0 {
		t.Errorf("slow-query stage_us missing filter/refine: %v", line.StageUs)
	}
}
