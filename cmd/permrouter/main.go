// Command permrouter is the scatter-gather front tier of the sharded
// serving stack: it fans every k-NN query out to a fleet of permserve
// shard processes and merges the per-shard top-k answers, speaking exactly
// the serving daemon's HTTP dialect — to a client, a router over S shards
// looks like one big permserve (see internal/router for the identity
// guarantees).
//
// Usage:
//
//	shardsplit -out idx/ -set dna -dataset dna -n 2000 -shards 2
//	permserve -dir idx/shard0 -addr 127.0.0.1:8081 &
//	permserve -dir idx/shard1 -addr 127.0.0.1:8082 &
//	permrouter -shards http://127.0.0.1:8081,http://127.0.0.1:8082 -addr :8080
//
//	curl localhost:8080/healthz            # ready only when every shard has a healthy replica
//	curl localhost:8080/metrics            # per-index, per-shard, per-replica counters and latency
//	curl localhost:8080/v1/indexes         # merged view (total n, per-replica generation matrix)
//	curl -d '{"query": "ACGTACGTAC", "k": 3}' localhost:8080/v1/indexes/dna/search
//
// Topology comes from exactly one of three flags. -shards lists one
// process per shard (backend i is shard i). -replicas adds replication:
// ';' separates shards, ',' separates the replicas within one —
// "http://a,http://b;http://c,http://d" is two shards of two replicas
// each, load-spread round-robin with automatic failover, so a single host
// loss inside a group is invisible (not a "partial" answer). -topology
// reads the same shards × replicas layout from a permsearch-topology/v1
// JSON file, the one cmd/permctl ships rollouts with. Startup refuses any
// wiring the shard stamps contradict.
//
// When a whole shard group is down, -fail-open answers from the survivors
// with "partial": true; the default fails closed with 502. -hedge-delay
// duplicates a laggard's request after the given delay — against a
// *different* replica when the group has one to spare. A replica failing
// -eject-after consecutive requests leaves the rotation until the
// background prober (every -probe-interval) sees its /healthz answer
// again; it is out exactly while its permrouter_replica_ejections_total
// exceeds its permrouter_replica_readmissions_total.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/rollout"
	"repro/internal/router"
)

func main() {
	shards := flag.String("shards", "", "comma-separated shard base URLs, in shard order (one process per shard)")
	replicas := flag.String("replicas", "", "replicated topology: ';' between shards, ',' between a shard's replicas")
	topoPath := flag.String("topology", "", "permsearch-topology/v1 JSON file describing the fleet (see cmd/permctl)")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port; the bound address is logged)")
	failOpen := flag.Bool("fail-open", false, "answer from surviving shards (with \"partial\": true) when a whole shard group is down, instead of 502")
	shardTimeout := flag.Duration("shard-timeout", 10*time.Second, "per-shard request budget")
	hedgeDelay := flag.Duration("hedge-delay", 0, "duplicate a shard request that has not answered within this delay (0: disabled)")
	ejectAfter := flag.Int("eject-after", 3, "consecutive failures before a replica leaves the rotation")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "how often ejected replicas are probed for re-admission")
	flag.Parse()

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	topo, err := parseTopology(*shards, *replicas, *topoPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "permrouter: %v\n", err)
		os.Exit(2)
	}

	rt, err := router.New(router.Options{
		Replicas:      topo,
		FailOpen:      *failOpen,
		ShardTimeout:  *shardTimeout,
		HedgeDelay:    *hedgeDelay,
		EjectAfter:    *ejectAfter,
		ProbeInterval: *probeInterval,
		Metrics:       obs.Default(),
	})
	if err != nil {
		log.Fatalf("permrouter: %v", err)
	}
	defer rt.Close()
	mode := "fail-closed"
	if *failOpen {
		mode = "fail-open"
	}
	nReplicas := 0
	for _, g := range topo {
		nReplicas += len(g)
	}
	log.Printf("permrouter: routing %d indexes over %d shards / %d replicas (%s)",
		len(rt.Names()), len(topo), nReplicas, mode)
	for _, name := range rt.Names() {
		log.Printf("permrouter: routing index %q", name)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("permrouter: %v", err)
	}
	log.Printf("permrouter: listening on http://%s (%d shards)", ln.Addr(), len(topo))

	hs := &http.Server{Handler: rt.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("permrouter: shutting down (in-flight requests get 10s to finish)")
		shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shctx); err != nil {
			log.Fatalf("permrouter: shutdown: %v", err)
		}
		log.Printf("permrouter: bye")
	case err := <-errCh:
		log.Fatalf("permrouter: %v", err)
	}
}

// parseTopology resolves the three topology flags (exactly one must be set)
// into the shards × replicas URL matrix.
func parseTopology(shards, replicas, topoPath string) ([][]string, error) {
	set := 0
	for _, f := range []string{shards, replicas, topoPath} {
		if f != "" {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("exactly one of -shards, -replicas, -topology is required (e.g. -shards http://h1:8081,http://h2:8082)")
	}
	switch {
	case topoPath != "":
		t, err := rollout.ReadTopology(topoPath)
		if err != nil {
			return nil, err
		}
		return t.URLs(), nil
	case replicas != "":
		var topo [][]string
		for _, groupSpec := range strings.Split(replicas, ";") {
			var group []string
			for _, u := range strings.Split(groupSpec, ",") {
				if u = strings.TrimSpace(u); u != "" {
					group = append(group, u)
				}
			}
			if len(group) == 0 {
				return nil, fmt.Errorf("-replicas: empty shard group in %q", replicas)
			}
			topo = append(topo, group)
		}
		return topo, nil
	default:
		var topo [][]string
		for _, u := range strings.Split(shards, ",") {
			if u = strings.TrimSpace(u); u != "" {
				topo = append(topo, []string{u})
			}
		}
		return topo, nil
	}
}
