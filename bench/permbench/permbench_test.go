package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false}, // the median of 19 has 9 samples beyond it
		{20, 50, true},
		{99, 50, true},
		{100, 90, true}, // exactly ten beyond p90
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 1: 1} {
		if got := quantile(xs, p); got != want {
			t.Errorf("quantile(p%v) = %v, want %v", p, got, want)
		}
	}
	// The narrowest majority window: two of three, three of five.
	if got := relSpread([]float64{120, 90, 100}); got != 0.1 {
		t.Errorf("relSpread of three = %v, want 0.1", got)
	}
	if got := relSpread([]float64{10, 95, 100, 110, 500}); got != 0.15 {
		t.Errorf("relSpread of five = %v, want 0.15", got)
	}
}

// readFixture parses one captured /metrics page from testdata.
func readFixture(t *testing.T, name string) exposition {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	page, err := parseExposition(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return page
}

// The fixtures were captured from a live fleet (permrouter over three
// permserve shards) before and after 40 single-query searches through the
// router; they pin the family names and label shapes permbench reads.
func TestExpositionDeltaServer(t *testing.T) {
	d := expoDelta{
		before: []exposition{readFixture(t, "permserve.before.metrics")},
		after:  []exposition{readFixture(t, "permserve.after.metrics")},
	}
	if got := d.sum("permserve_queries_total"); got != 40 {
		t.Errorf("queries delta = %v, want 40", got)
	}
	if got := d.sum("permserve_search_requests_total", "index", "sift"); got != 40 {
		t.Errorf("requests delta = %v, want 40", got)
	}
	if got := d.sum("permserve_search_requests_total", "index", "nope"); got != 0 {
		t.Errorf("delta for an absent label = %v, want 0", got)
	}
	var stages float64
	for _, st := range []string{"filter", "refine", "merge"} {
		ns := d.sum("permserve_stage_ns_total", "stage", st)
		if ns <= 0 {
			t.Errorf("stage %s: delta %v, want > 0", st, ns)
		}
		stages += ns
	}
	if ns := d.sum("permserve_stage_ns_total", "stage", "lsm_base"); ns != 0 {
		t.Errorf("immutable index reports lsm_base time %v", ns)
	}
	mean := d.meanSeconds("permserve_search_latency_seconds")
	if mean <= 0 || mean*40*1e9 < stages {
		t.Errorf("mean request %vs over 40 requests is below the %v ns its stages took", mean, stages)
	}
	if d.sum("permserve_refine_distances_total") <= 0 || d.sum("permserve_filter_candidates_total") <= 0 {
		t.Errorf("no candidate/refine counts in the delta")
	}
	// Histogram buckets are not part of the surface permbench reads.
	for _, s := range d.after[0] {
		if s.name == "permserve_search_latency_seconds_bucket" {
			t.Fatalf("parser kept a _bucket line")
		}
	}
}

func TestExpositionDeltaRouter(t *testing.T) {
	after := readFixture(t, "permrouter.after.metrics")
	d := expoDelta{before: []exposition{readFixture(t, "permrouter.before.metrics")}, after: []exposition{after}}
	if got := d.sum("permrouter_requests_total"); got != 40 {
		t.Errorf("requests delta = %v, want 40", got)
	}
	shards := after.labelValues("permrouter_shard_latency_seconds_count", "shard")
	if !reflect.DeepEqual(shards, []string{"0", "1", "2"}) {
		t.Fatalf("shards = %v, want [0 1 2]", shards)
	}
	request := d.meanSeconds("permrouter_request_latency_seconds")
	for _, s := range shards {
		if n := d.sum("permrouter_shard_latency_seconds_count", "shard", s); n != 40 {
			t.Errorf("shard %s: %v legs, want 40", s, n)
		}
		leg := d.meanSeconds("permrouter_shard_latency_seconds", "shard", s)
		if leg <= 0 || leg > request {
			t.Errorf("shard %s: mean leg %v outside (0, request mean %v]", s, leg, request)
		}
	}
	if d.sum("permrouter_shard_failovers_total") != 0 || d.sum("permrouter_replica_hedges_total") != 0 {
		t.Errorf("healthy fleet shows failovers or hedges")
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"name_without_value\n", "name{a=b} 1\n", "name{a=\"x\"} notanumber\n"} {
		if _, err := parseExposition(bytes.NewBufferString(bad)); err == nil {
			t.Errorf("parseExposition(%q) succeeded", bad)
		}
	}
}

// fakeClock advances only when told to: Sleep moves it forward, and each
// operation moves it by its scripted service time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const ms = time.Millisecond
	c := &fakeClock{now: time.Unix(1000, 0)}
	start := c.now
	dues := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 40 * ms}
	service := []time.Duration{2 * ms, 25 * ms, 2 * ms, 2 * ms, 2 * ms} // op 1 stalls
	got := openLoop(c, start, dues, func(i int) { c.now = c.now.Add(service[i]) })

	want := []opTiming{
		{due: 0, sent: 0, done: 2 * ms},
		{due: 10 * ms, sent: 10 * ms, done: 35 * ms},
		{due: 20 * ms, sent: 35 * ms, done: 37 * ms}, // waited behind the stall: 17 ms from due, not 2
		{due: 30 * ms, sent: 37 * ms, done: 39 * ms},
		{due: 40 * ms, sent: 40 * ms, done: 42 * ms}, // caught up
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("timings\n got %v\nwant %v", got, want)
	}
	if share := lateShare(got); share != 0.4 {
		t.Errorf("late share = %v, want 0.4 (ops 2 and 3 left more than 1 ms after due)", share)
	}
}

// tiny shrinks a workload so tests build it in milliseconds.
func tiny(w workload) workload {
	w.n, w.pool, w.q, w.t = 1500, 600, 64, 2
	if w.dataset == "dna" {
		w.n, w.q = 600, 32
	}
	if w.batch > 1 {
		w.batch, w.tunedT = 16, 1
	}
	if w.mutable {
		w.flushEvery = 30
	}
	return w
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, full := range workloads {
		w := tiny(full)
		inputs := func(seed int64) (bodies [][]byte, sched []writeOp) {
			o, err := newOracle(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range buildRequests(w, o) {
				bodies = append(bodies, r.body)
			}
			if w.mutable {
				sched = buildSchedule(w, seed, 2*time.Second)
				for _, op := range sched {
					if op.kind == opAdd {
						bodies = append(bodies, o.addJSON(op.add))
					}
				}
			}
			return bodies, sched
		}
		b1, s1 := inputs(7)
		b2, s2 := inputs(7)
		b3, s3 := inputs(8)
		if !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: seed 7 gave different inputs on a second draw", w.name)
		}
		if reflect.DeepEqual(b1, b3) {
			t.Errorf("%s: seeds 7 and 8 gave identical request bodies", w.name)
		}
		if w.mutable && reflect.DeepEqual(s1, s3) {
			t.Errorf("%s: seeds 7 and 8 gave identical ingest schedules", w.name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	w, _ := findWorkload("sift-ingest")
	sched := buildSchedule(w, 1, 10*time.Second)
	var adds, deletes, flushes int
	deadAdds := map[int]bool{}
	for i, op := range sched {
		switch op.kind {
		case opAdd:
			if op.add != adds {
				t.Fatalf("op %d: add ordinal %d, want %d", i, op.add, adds)
			}
			adds++
		case opDelete:
			deletes++
			if op.delAdd >= 0 {
				if op.delAdd >= adds || deadAdds[op.delAdd] {
					t.Fatalf("op %d deletes add %d: not yet added, or already deleted", i, op.delAdd)
				}
				deadAdds[op.delAdd] = true
			}
		case opFlush:
			flushes++
		}
	}
	if adds != 1800 || deletes != 200 || flushes != 10 {
		t.Errorf("10 s at 200 ops/s: %d adds, %d deletes, %d flushes; want 1800, 200, 10", adds, deletes, flushes)
	}
}

func TestVerdict(t *testing.T) {
	v := func(val, spread float64) spreadValue {
		return spreadValue{metricValue: metricValue{Value: val}, Spread: spread}
	}
	for _, c := range []struct {
		a, b   spreadValue
		better string
		bound  float64
		want   string
	}{
		{v(100, 0.02), v(105, 0.02), "lower", 0.10, "ok"},
		{v(100, 0.02), v(115, 0.02), "lower", 0.10, "regressed"},
		{v(100, 0.02), v(80, 0.02), "lower", 0.10, "ok"}, // better is never a regression
		{v(100, 0.02), v(85, 0.02), "higher", 0.10, "regressed"},
		{v(100, 0.02), v(115, 0.02), "higher", 0.10, "ok"},
		{v(100, 0.12), v(115, 0.02), "lower", 0.10, "unresolved"},
		{v(100, 0.02), v(101, 0.30), "lower", 0.10, "unresolved"},
	} {
		if _, got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("verdict(%v -> %v, %s, %v) = %s, want %s", c.a.Value, c.b.Value, c.better, c.bound, got, c.want)
		}
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the names and units permbench
// prints in step with the contract file at the repository root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := readBenchmarkFile("")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, permbench %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, permbench %q", i, b.Workloads[i].Name, w.name)
		}
	}
	var e2e, layer []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v, better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs:\nBENCHMARK.json %v\npermbench      %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differs:\nBENCHMARK.json %v\npermbench      %v", layer, perLayer)
	}
}

// TestSmoke runs the whole pipeline — build the daemons, shardsplit, boot,
// load, crash, verify, tear down — on every workload at tiny sizes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real daemons")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	// Metrics that may legitimately read 0 on a healthy tiny run.
	mayBeZero := map[string]bool{
		"router.failovers": true, "router.hedges": true, "lsm.acked_lost": true,
		"lsm.mask_us": true, "client.add_late_share": true, "bench.trace_overhead_pct": true,
	}
	for _, full := range workloads {
		w := tiny(full)
		for _, trace := range []bool{false, true} {
			out, err := runWorkload(e, w, config{seed: 3, length: time.Second, trace: trace, setups: 1})
			if err != nil {
				e.dumpLogs(os.Stderr)
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !out.correct || out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v", w.name, trace, out.correct, out.attempted, out.failed, out.problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			line, err := json.Marshal(named(defs, out.metrics))
			if err != nil {
				t.Fatal(err)
			}
			var printed map[string]metricValue
			if err := json.Unmarshal(line, &printed); err != nil {
				t.Fatal(err)
			}
			for _, d := range defs {
				v, ok := printed[d.name]
				if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present=%v)", w.name, trace, d.name, v, ok)
				}
				layer := d.name[:max(0, bytes.IndexByte([]byte(d.name), '.'))]
				absent := (layer == "router" && w.shards == 1) || ((layer == "lsm" || d.name == "client.add_p50_ms" || d.name == "client.add_p99_ms") && !w.mutable)
				if v.Value == 0 && !absent && !mayBeZero[d.name] {
					t.Errorf("%s trace=%v: metric %s is 0", w.name, trace, d.name)
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(e.runDir, "set-*")); len(left) > 0 {
		t.Errorf("index sets left behind: %v", left)
	}
}
