package main

import (
	"runtime"
	"sort"
	"time"
)

// traced is the per-layer pass: exact truth and the in-process ladder, then
// warm-up, then cfg.length of the workload's load shape with span recording
// on, bracketed by reads of /metrics, /proc and the clock.
func (r *run) traced() error {
	kth := r.o.kthDistances(nil, nil)
	ladder, err := r.o.ladder(r.tr, r.env.runDir, kth)
	if err != nil {
		return err
	}
	for k, v := range ladder {
		r.out.metrics[k] = v
	}

	// The second half of the warm-up, untraced, is the reference the
	// tracing overhead is taken against.
	warm := r.srch.closedLoop(r.reqs, r.w.clients, until(time.Now().Add(2*warmup)), nil, nil, -1)
	r.out.tally(warm)
	var ref []float64
	for _, s := range warm.samples {
		if s.done >= warmup {
			ref = append(ref, s.ms)
		}
	}

	before, err := r.snapshot()
	if err != nil {
		return err
	}
	span := r.tr.begin("pass", -1)
	var load searchLoad
	var writes writeLoad
	if r.w.mutable {
		load, writes = r.segment(0, r.cfg.length, r.tr, span)
	} else {
		// Whole passes over the query set, so per-query counts repeat
		// exactly from run to run.
		start := time.Now()
		for n := 0; n < 3 || time.Since(start) < r.cfg.length; n++ {
			load.merge(r.srch.closedLoop(r.reqs, r.w.clients, once(r.reqs), nil, r.tr, span))
		}
	}
	r.tr.end(span)
	after, err := r.snapshot()
	if err != nil {
		return err
	}
	r.out.tally(load)
	r.layers(before, after, load, writes, ref)
	return nil
}

// snapshot is one reading of everything the traced pass is bracketed by.
type snapshot struct {
	at        time.Time
	servers   []exposition
	router    []exposition
	serverCPU float64
	routerCPU float64
	selfCPU   float64
}

func (r *run) snapshot() (snapshot, error) {
	s := snapshot{at: time.Now(), serverCPU: procsCPU(r.sys.servers)}
	s.selfCPU, _ = cpuSeconds("self")
	for _, p := range r.sys.servers {
		page, err := r.env.scrape(p)
		if err != nil {
			return s, err
		}
		s.servers = append(s.servers, page)
	}
	if r.sys.router != nil {
		page, err := r.env.scrape(r.sys.router)
		if err != nil {
			return s, err
		}
		s.router = []exposition{page}
		s.routerCPU = procsCPU([]*proc{r.sys.router})
	}
	return s, nil
}

// layers derives the per-layer metrics from the two snapshots and the
// client's own samples. Stage times are per query as a server saw it (on the
// fleet: one shard's share); candidate and distance counts are per client
// query, summed over shards.
func (r *run) layers(before, after snapshot, load searchLoad, writes writeLoad, ref []float64) {
	m := r.out.metrics
	var lat []float64
	clientQueries := 0.0
	for _, s := range load.samples {
		lat = append(lat, s.ms)
		clientQueries += float64(s.queries)
	}
	sort.Float64s(lat)
	clientMeanUs := 1e3 * mean(lat)
	m["client.search_mean_ms"] = mean(lat)
	m["client.search_p50_ms"] = quantile(lat, 50)
	m["client.search_p90_ms"] = quantile(lat, 90)
	m["client.search_p99_ms"] = quantile(lat, 99)
	m["client.samples"] = float64(len(lat))
	wall := after.at.Sub(before.at).Seconds()
	m["client.cpu_share"] = (after.selfCPU - before.selfCPU) / (wall * float64(runtime.NumCPU()))
	// The untraced reference ran without the writer, so on a mutable
	// workload the two p50s do not measure the same load.
	if p := median(ref); p > 0 && !r.w.mutable {
		m["bench.trace_overhead_pct"] = 100 * (m["client.search_p50_ms"] - p) / p
	}

	sd := expoDelta{before: before.servers, after: after.servers}
	serverQueries := sd.sum("permserve_queries_total")
	serverRequests := sd.sum("permserve_search_requests_total")
	if serverQueries == 0 || serverRequests == 0 || clientQueries == 0 {
		r.out.problemf("traced pass: the daemons counted %v queries in %v requests for %v client queries", serverQueries, serverRequests, clientQueries)
		return
	}
	stageUs := func(stage string) float64 {
		return sd.sum("permserve_stage_ns_total", "stage", stage) / serverQueries / 1e3
	}
	m["core.filter_us"] = stageUs("filter")
	m["core.refine_us"] = stageUs("refine")
	m["core.merge_us"] = stageUs("merge")
	m["core.filter_candidates_per_query"] = sd.sum("permserve_filter_candidates_total") / clientQueries
	refine := sd.sum("permserve_refine_distances_total") / clientQueries
	m["core.refine_distances_per_query"] = refine
	if refine > 0 {
		m["core.refine_yield"] = topK / refine
	}
	m["core.refine_share"] = refine / float64(r.w.n)

	// A mutable entry's lsm_* stages enclose the core stages of their
	// components, so on the request's critical path they stand in for them.
	stages := m["core.filter_us"] + m["core.refine_us"] + m["core.merge_us"]
	if r.w.mutable {
		m["lsm.base_us"] = stageUs("lsm_base")
		m["lsm.tiers_us"] = stageUs("lsm_tiers")
		m["lsm.memtable_us"] = stageUs("lsm_memtable")
		m["lsm.mask_us"] = stageUs("lsm_mask")
		stages = m["lsm.base_us"] + m["lsm.tiers_us"] + m["lsm.memtable_us"] + m["lsm.mask_us"]
	}
	m["server.request_us"] = 1e6 * sd.meanSeconds("permserve_search_latency_seconds")
	m["server.overhead_us"] = m["server.request_us"] - stages*r.w.pathScale()
	m["server.cpu_ms_per_query"] = 1e3 * (after.serverCPU - before.serverCPU) / clientQueries
	m["server.rss_peak_mb"] = procsRSS(r.sys.servers)
	m["server.wire_us"] = clientMeanUs - m["server.request_us"]

	if r.sys.router != nil {
		rd := expoDelta{before: before.router, after: after.router}
		m["router.request_us"] = 1e6 * rd.meanSeconds("permrouter_request_latency_seconds")
		var legs []float64
		for _, shard := range after.router[0].labelValues("permrouter_shard_latency_seconds_count", "shard") {
			legs = append(legs, 1e6*rd.meanSeconds("permrouter_shard_latency_seconds", "shard", shard))
		}
		sort.Float64s(legs)
		m["router.shard_leg_us"] = mean(legs)
		m["router.shard_leg_max_us"] = legs[len(legs)-1]
		m["router.overhead_us"] = m["router.request_us"] - m["router.shard_leg_max_us"]
		m["router.shard_wire_us"] = m["router.shard_leg_us"] - m["server.request_us"]
		m["router.wire_us"] = clientMeanUs - m["router.request_us"]
		m["router.cpu_ms_per_query"] = 1e3 * (after.routerCPU - before.routerCPU) / clientQueries
		m["router.rss_peak_mb"] = procsRSS([]*proc{r.sys.router})
		m["router.failovers"] = rd.sum("permrouter_shard_failovers_total")
		m["router.hedges"] = rd.sum("permrouter_replica_hedges_total")
		// The daemon's direct client is the router: its wire cost is the
		// shard hop's.
		m["server.wire_us"] = m["router.shard_wire_us"]
	}

	if r.w.mutable {
		m["lsm.flush_ms"] = median(writes.flushMs)
		var addMs []float64
		for _, a := range writes.adds {
			addMs = append(addMs, float64((a.done-a.due).Nanoseconds())/1e6)
		}
		sort.Float64s(addMs)
		m["client.add_p50_ms"] = quantile(addMs, 50)
		m["client.add_p99_ms"] = quantile(addMs, 99)
		m["client.add_late_share"] = lateShare(writes.adds)
	}
}
