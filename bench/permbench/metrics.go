package main

// metricDef names one metric and its unit. BENCHMARK.json carries the same
// lists (plus direction and bound); a test keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a client of the system sees; every workload
// reports every one. op_* is the latency of the workload's gated operation:
// a search request on the three read workloads, an add — timed from its due
// time — on sift-ingest, whose search side is gated through search_qps (one
// closed-loop reader: queries per second is the inverse of mean latency).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_qps", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"recall_at_10", "ratio"},
}

// perLayer are the single-layer metrics of the traced pass, by module.
// Every workload prints every one; a layer the workload does not have
// (router on a direct topology, lsm on a read-only one) reads 0.
var perLayer = []metricDef{
	{"space.distance_ns", "ns"},
	{"seqscan.search_us", "us"},
	{"core.search_us", "us"},
	{"core.filter_us", "us"},
	{"core.refine_us", "us"},
	{"core.merge_us", "us"},
	{"core.filter_candidates_per_query", "count"},
	{"core.refine_distances_per_query", "count"},
	{"core.refine_yield", "ratio"},
	{"core.refine_share", "ratio"},
	{"core.speedup_vs_seqscan", "x"},
	{"core.recall_at_10", "ratio"},
	{"core.build_s", "s"},
	{"engine.batch_qps", "1/s"},
	{"engine.batch_speedup", "x"},
	{"persist.save_s", "s"},
	{"persist.load_s", "s"},
	{"persist.index_bytes_per_object", "bytes"},
	{"server.load_ready_s", "s"},
	{"server.request_us", "us"},
	{"server.overhead_us", "us"},
	{"server.wire_us", "us"},
	{"server.cpu_ms_per_query", "ms"},
	{"server.rss_peak_mb", "MiB"},
	{"router.request_us", "us"},
	{"router.shard_leg_us", "us"},
	{"router.shard_leg_max_us", "us"},
	{"router.overhead_us", "us"},
	{"router.shard_wire_us", "us"},
	{"router.wire_us", "us"},
	{"router.cpu_ms_per_query", "ms"},
	{"router.rss_peak_mb", "MiB"},
	{"router.failovers", "count"},
	{"router.hedges", "count"},
	{"lsm.base_us", "us"},
	{"lsm.tiers_us", "us"},
	{"lsm.memtable_us", "us"},
	{"lsm.mask_us", "us"},
	{"lsm.flush_ms", "ms"},
	{"lsm.disk_bytes_per_add", "bytes"},
	{"lsm.recovery_s", "s"},
	{"lsm.acked_lost", "count"},
	{"client.search_mean_ms", "ms"},
	{"client.search_p50_ms", "ms"},
	{"client.search_p90_ms", "ms"},
	{"client.search_p99_ms", "ms"},
	{"client.add_p50_ms", "ms"},
	{"client.add_p99_ms", "ms"},
	{"client.add_late_share", "ratio"},
	{"client.samples", "count"},
	{"client.cpu_share", "ratio"},
	{"bench.setup_split_s", "s"},
	{"bench.recall_at_10", "ratio"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.loadavg_start", "load"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// named pairs values with the units of defs; a metric the run did not set
// reads 0.
func named(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}
