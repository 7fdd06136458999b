package main

import (
	"fmt"
	"io"
	"strings"
)

// budgetRow is one line of the latency budget: a layer's share of the mean
// client-observed request, indented under the row it is part of.
type budgetRow struct {
	depth int
	name  string
	us    float64
}

// budget lays the traced pass's per-layer times out as a tree whose children
// sum to their parent, residuals included, down from the client mean:
//
//	client mean  = router.wire + router.overhead + router.shard_leg_max
//	leg (max)    = straggler gap + router.shard_wire + server.request
//	server.request = server.overhead + stage rows
//
// On a direct topology the router rows are absent and the client mean splits
// into server.wire + server.request.
func budget(w workload, m map[string]float64) []budgetRow {
	rows := []budgetRow{{0, "client.search_mean", 1e3 * m["client.search_mean_ms"]}}
	depth := 1
	if w.shards > 1 {
		rows = append(rows,
			budgetRow{1, "router.wire_us", m["router.wire_us"]},
			budgetRow{1, "router.overhead_us", m["router.overhead_us"]},
			budgetRow{1, "router.shard_leg_max_us", m["router.shard_leg_max_us"]},
			budgetRow{2, "(slowest leg - mean leg)", m["router.shard_leg_max_us"] - m["router.shard_leg_us"]},
			budgetRow{2, "router.shard_wire_us", m["router.shard_wire_us"]},
		)
		depth = 2
	} else {
		rows = append(rows, budgetRow{1, "server.wire_us", m["server.wire_us"]})
	}
	rows = append(rows,
		budgetRow{depth, "server.request_us", m["server.request_us"]},
		budgetRow{depth + 1, "server.overhead_us", m["server.overhead_us"]},
	)
	// Stage rows are per query; scale them to their share of one request.
	scale := w.pathScale()
	stages := []string{"core.filter_us", "core.refine_us", "core.merge_us"}
	if w.mutable {
		stages = []string{"lsm.base_us", "lsm.tiers_us", "lsm.memtable_us", "lsm.mask_us"}
	}
	for _, s := range stages {
		rows = append(rows, budgetRow{depth + 1, s, scale * m[s]})
	}
	return rows
}

// printBudget writes the budget table; a row more than 5% of the client
// mean below zero is marked, since it means two clocks disagree by more than
// the budget can absorb.
func printBudget(out io.Writer, w workload, m map[string]float64) {
	rows := budget(w, m)
	total := rows[0].us
	fmt.Fprintf(out, "\n%s: budget of the mean request, traced pass (%d samples", w.name, int(m["client.samples"]))
	if p, ok := tailPercentile(int(m["client.samples"])); ok {
		fmt.Fprintf(out, ", supports up to p%g", p)
	}
	fmt.Fprintf(out, ")\n")
	for _, r := range rows {
		mark := ""
		if r.us < -0.05*total {
			mark = "  <-- negative beyond 5% of the client mean"
		}
		share := 0.0
		if total > 0 {
			share = 100 * r.us / total
		}
		fmt.Fprintf(out, "  %-44s %11.1f us %6.1f%%%s\n", strings.Repeat("  ", r.depth)+r.name, r.us, share, mark)
	}
	if m["client.cpu_share"] > 0.35 {
		fmt.Fprintf(out, "  generator-bound: permbench itself used %.0f%% of the machine\n", 100*m["client.cpu_share"])
	}
}
