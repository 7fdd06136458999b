// Command permctl is the rollout control plane of the replicated serving
// tier: it ships a shard-set generation (a shardsplit output directory)
// onto a fleet of permserve replicas and watches it converge, rolling back
// automatically when the new generation regresses.
//
// Usage:
//
//	permctl status  -topology fleet.json [-set dna]
//	permctl rollout -topology fleet.json -manifest idx2/dna.shardset.json \
//	                [-router http://127.0.0.1:8080] [-golden 32] [-min-recall 0.95]
//
// The topology file (permsearch-topology/v1) lists the fleet as shards ×
// replicas, each with a URL and — when the driver shares a filesystem with
// the serving processes — the directory it serves from, so permctl can
// install the new index bytes before asking for the reload. permrouter
// -topology consumes the same file.
//
// A rollout is gated three times: the shard files are re-checksummed
// against the set manifest before anything ships (a corrupt byte never
// reaches a replica); each replica must pass its readiness gate before and
// after its reload, replica by replica, so at most one member of a group
// is ever out of rotation; and, when -router is given, a golden query
// suite captured against the old generation re-runs against the new one —
// a recall (or, with -max-latency-factor, latency) regression rolls every
// replica back to its previous files and the fleet re-converges on the old
// generation. Exit status 0 means the fleet converged on the manifest's
// generation; anything else means it did not (the report says why, and
// whether the rollback restored the previous state).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/rollout"
	"repro/internal/shard"
	"repro/internal/wire"
)

func main() {
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "status":
		cmdStatus(os.Args[2:])
	case "rollout":
		cmdRollout(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: permctl <status|rollout> [flags]  (permctl <cmd> -h for flags)")
	os.Exit(2)
}

// cmdStatus prints the fleet's health, per-set generations and search
// latency quantiles, one row per replica — the human-readable view of the
// generation matrix the router serves on /v1/indexes, joined with each
// replica's GET /metrics latency histogram.
func cmdStatus(args []string) {
	fs := flag.NewFlagSet("permctl status", flag.ExitOnError)
	topoPath := fs.String("topology", "", "permsearch-topology/v1 fleet file (required)")
	set := fs.String("set", "", "only show this index set")
	timeout := fs.Duration("timeout", 5*time.Second, "per-replica request budget")
	fs.Parse(args)
	if *topoPath == "" {
		fmt.Fprintln(os.Stderr, "permctl status: -topology is required")
		os.Exit(2)
	}
	topo, err := rollout.ReadTopology(*topoPath)
	if err != nil {
		log.Fatalf("permctl: %v", err)
	}

	client := &http.Client{Timeout: *timeout}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "SHARD\tREPLICA\tURL\tHEALTH\tSET\tGENERATION\tN\tREQS\tP50\tP95\tP99")
	unhealthy := 0
	for s, group := range topo.Shards {
		for r, rep := range group {
			health := "ok"
			if err := wire.Healthy(context.Background(), client, rep.URL); err != nil {
				health = "unreachable"
				var se *wire.StatusError
				if errors.As(err, &se) {
					health = fmt.Sprintf("status %d", se.Status)
				}
				unhealthy++
			}
			rows, err := wire.ListIndexes(context.Background(), client, rep.URL)
			if err != nil {
				fmt.Fprintf(w, "%d\t%d\t%s\t%s\t-\t-\t-\t-\t-\t-\t-\n", s, r, rep.URL, health)
				continue
			}
			tm := scrapeMetrics(client, rep.URL)
			for _, row := range rows {
				if *set != "" && row.Name != *set {
					continue
				}
				reqs, p50, p95, p99 := latencyCells(tm, row.Name)
				fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%s\t%d\t%d\t%s\t%s\t%s\t%s\n",
					s, r, rep.URL, health, row.Name, row.Generation, row.N,
					reqs, p50, p95, p99)
			}
		}
	}
	w.Flush()
	if unhealthy > 0 {
		os.Exit(1)
	}
}

// cmdRollout drives a shard-set generation onto the fleet.
func cmdRollout(args []string) {
	fs := flag.NewFlagSet("permctl rollout", flag.ExitOnError)
	topoPath := fs.String("topology", "", "permsearch-topology/v1 fleet file (required)")
	manifest := fs.String("manifest", "", "shard-set manifest (<set>.shardset.json) of the generation to ship (required)")
	routerURL := fs.String("router", "", "router base URL for the golden query gate (empty: gate disabled)")
	golden := fs.Int("golden", 32, "golden query count")
	goldenK := fs.Int("golden-k", 10, "neighbors per golden query")
	minRecall := fs.Float64("min-recall", 0.95, "roll back when golden overlap@k against the old generation drops below this")
	maxLatency := fs.Float64("max-latency-factor", 0, "roll back when the golden suite slows down by more than this factor (0: disabled)")
	allowOlder := fs.Bool("allow-older", false, "allow shipping a generation that is not newer than the fleet's")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request budget")
	converge := fs.Duration("converge-timeout", 30*time.Second, "per-replica convergence budget after a reload")
	fs.Parse(args)
	if *topoPath == "" || *manifest == "" {
		fmt.Fprintln(os.Stderr, "permctl rollout: -topology and -manifest are required")
		os.Exit(2)
	}
	topo, err := rollout.ReadTopology(*topoPath)
	if err != nil {
		log.Fatalf("permctl: %v", err)
	}

	opts := rollout.Options{
		Topology:         topo,
		RouterURL:        *routerURL,
		GoldenK:          *goldenK,
		MinRecall:        *minRecall,
		MaxLatencyFactor: *maxLatency,
		AllowOlder:       *allowOlder,
		Timeout:          *timeout,
		ConvergeTimeout:  *converge,
	}
	if *routerURL != "" {
		// The golden probes regenerate deterministically from the set
		// manifest's dataset and seed, so driver and fleet agree on them
		// without any shared query file.
		m, err := shard.ReadSetManifest(*manifest)
		if err != nil {
			log.Fatalf("permctl: %v", err)
		}
		opts.GoldenQueries, err = rollout.GoldenQueries(m.Dataset, m.Seed, *golden)
		if err != nil {
			log.Fatalf("permctl: %v", err)
		}
	}
	d, err := rollout.New(opts)
	if err != nil {
		log.Fatalf("permctl: %v", err)
	}

	report, err := d.Rollout(*manifest)
	if report != nil {
		blob, _ := json.MarshalIndent(report, "", "  ")
		fmt.Println(string(blob))
	}
	if err != nil {
		log.Fatalf("permctl: %v", err)
	}
}

// scrapeMetrics fetches and parses one replica's GET /metrics; nil when the
// replica is unreachable or predates the endpoint (the status table then
// shows "-" latency cells instead of failing the whole listing).
func scrapeMetrics(client *http.Client, base string) *obs.TextMetrics {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil
	}
	tm, err := obs.ParseText(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return nil
	}
	return tm
}

// latencyCells renders one index's request count and p50/p95/p99 search
// latency from the scraped histogram.
func latencyCells(tm *obs.TextMetrics, name string) (reqs, p50, p95, p99 string) {
	reqs, p50, p95, p99 = "-", "-", "-", "-"
	if tm == nil {
		return
	}
	match := map[string]string{"index": name}
	quantile := func(q float64) (string, int64, bool) {
		v, count, ok := tm.Quantile("permserve_search_latency_seconds", match, q)
		if !ok || count == 0 {
			return "-", count, ok
		}
		return time.Duration(v * float64(time.Second)).Round(10 * time.Microsecond).String(), count, true
	}
	s50, count, ok := quantile(0.50)
	if !ok {
		return
	}
	reqs = fmt.Sprintf("%d", count)
	if count == 0 {
		return
	}
	s95, _, _ := quantile(0.95)
	s99, _, _ := quantile(0.99)
	return reqs, s50, s95, s99
}
