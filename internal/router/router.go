package router

import (
	"context"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/topk"
	"repro/internal/wire"
)

// Options configure the HTTP scatter-gather front tier.
type Options struct {
	// Replicas is the shards × replicas topology: Replicas[i] lists the
	// base URLs of shard i's replica group, every member serving the
	// identical shard-i content. Groups spread load round-robin, hedge
	// across members, and fail over on error, so one host loss inside a
	// group never degrades the answer.
	Replicas [][]string
	// FailOpen selects the degraded mode when a whole shard group is down:
	// true answers from the surviving shards with "partial": true, false
	// answers 502. Default false (fail closed) — silently incomplete
	// answers must be opted into.
	FailOpen bool
	// ShardTimeout bounds each per-shard call (default 10s).
	ShardTimeout time.Duration
	// HedgeDelay, when positive, launches a speculative attempt against
	// the shard's *next* replica when the current one has not answered
	// within the delay — tail latency insurance that does useful work on a
	// different host instead of duplicating to the same one. 0 disables.
	HedgeDelay time.Duration
	// EjectAfter is the consecutive-infrastructure-failure count that
	// takes a replica out of the regular rotation (default 3). An ejected
	// replica is probed via /healthz and re-admitted when it answers.
	EjectAfter int
	// ProbeInterval is the cadence of the ejected-replica re-admission
	// prober (default 2s).
	ProbeInterval time.Duration
	// Log receives routing events; nil means the process default logger.
	Log *log.Logger
	// Metrics is the registry GET /metrics exposes and the per-index,
	// per-shard and per-replica counters record into; nil means the
	// process-wide obs.Default(). Tests pass private registries.
	Metrics *obs.Registry
}

// routedIndex is one routable index name with what discovery learned about
// it: per-shard metadata must agree on kind and space, and the shard sizes
// sum to the full corpus. generations is the shard × replica generation
// matrix, refreshed live by GET /v1/indexes (rollout drivers watch it
// converge); guarded by Router.gensMu.
type routedIndex struct {
	kind        string
	space       string
	totalN      uint64
	generations [][]int64 // [shard][replica]
}

// Router is the scatter-gather HTTP front tier over S shard replica
// groups. It speaks the same /v1/indexes/{name}/search wire dialect as the
// serving daemon — to a client, a router over S shards is indistinguishable
// from one big permserve (byte-identical answers included, see the package
// doc), even while individual replicas die and come back; only the loss of
// an entire group makes the degraded-mode contract (Options.FailOpen)
// visible.
//
// Create with New, which connects to every replica and validates the
// topology; mount via Handler; Close stops the background health prober.
type Router struct {
	groups     []*group
	indexes    map[string]*routedIndex
	names      []string // sorted
	gensMu     sync.Mutex
	failOpen   bool
	hedgeDelay time.Duration
	timeout    time.Duration
	log        *log.Logger
	start      time.Time
	mux        *http.ServeMux
	stop       chan struct{}
	stopOnce   sync.Once

	metrics *obs.Registry
	rm      map[string]*routedMetrics
}

// routedMetrics are one routed index's front-tier metric handles.
type routedMetrics struct {
	requests *obs.Counter
	failures *obs.Counter
	latency  *obs.Histogram
}

// New builds a router over the topology in opts. It fetches every replica's
// index list and refuses to start on an inconsistent topology: differing
// name sets, mismatched kind/space for a name, replicas of one shard
// serving different subset sizes, or a shard stamp that contradicts the
// group's position — a miswired router would otherwise serve merged
// nonsense that looks healthy. Replica generations may differ within a
// group (that is what a rollout in flight looks like).
func New(opts Options) (*Router, error) {
	if len(opts.Replicas) == 0 {
		return nil, fmt.Errorf("router: no shard backends")
	}
	if opts.ShardTimeout <= 0 {
		opts.ShardTimeout = 10 * time.Second
	}
	if opts.EjectAfter <= 0 {
		opts.EjectAfter = 3
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 2 * time.Second
	}
	rt := &Router{
		indexes:    map[string]*routedIndex{},
		failOpen:   opts.FailOpen,
		hedgeDelay: opts.HedgeDelay,
		timeout:    opts.ShardTimeout,
		log:        opts.Log,
		metrics:    opts.Metrics,
		start:      time.Now(),
		mux:        http.NewServeMux(),
		stop:       make(chan struct{}),
	}
	if rt.log == nil {
		rt.log = log.Default()
	}
	if rt.metrics == nil {
		rt.metrics = obs.Default()
	}
	for s, urls := range opts.Replicas {
		if len(urls) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", s)
		}
		g := newGroup(rt.metrics, s, int32(opts.EjectAfter), rt.log)
		for ri, base := range urls {
			g.replicas = append(g.replicas, newReplica(rt.metrics, s, ri, base, opts.ShardTimeout))
		}
		rt.groups = append(rt.groups, g)
	}
	if err := rt.discover(); err != nil {
		return nil, err
	}
	rt.registerMetrics()
	go rt.probeLoop(opts.ProbeInterval)
	rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
	rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
	rt.mux.HandleFunc("GET /v1/indexes", rt.handleList)
	rt.mux.HandleFunc("POST /v1/indexes/{name}/search", rt.handleSearch)
	return rt, nil
}

// registerMetrics registers the per-index front-tier families (the shard
// and replica ones belong to newGroup and newReplica). Runs after discover,
// which learns the index names, so every label child exists from the first
// scrape.
func (rt *Router) registerMetrics() {
	reg := rt.metrics
	requests := reg.Counter("permrouter_requests_total", "Search requests received by the front tier, per index.", "index")
	failures := reg.Counter("permrouter_request_failures_total", "Search requests answered 4xx/5xx by the front tier, per index.", "index")
	latency := reg.Histogram("permrouter_request_latency_seconds", "Front-tier search latency (scatter + gather + merge).", 1e-9, "index")
	rt.rm = make(map[string]*routedMetrics, len(rt.names))
	for _, name := range rt.names {
		rt.rm[name] = &routedMetrics{
			requests: requests.With(name),
			failures: failures.With(name),
			latency:  latency.With(name),
		}
	}
	start := rt.start
	reg.GaugeFunc("permrouter_uptime_seconds", "Process uptime.", func() float64 {
		return time.Since(start).Seconds()
	})
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := rt.metrics.WriteText(w); err != nil {
		rt.log.Printf("router: writing /metrics: %v", err)
	}
}

// Handler returns the mounted routes.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Names lists the routable index names, sorted.
func (rt *Router) Names() []string { return rt.names }

// Close stops the background re-admission prober. Safe to call more than
// once; in-flight requests are unaffected.
func (rt *Router) Close() { rt.stopOnce.Do(func() { close(rt.stop) }) }

// jitterInterval draws one probe delay: uniform over
// [interval/2, 3*interval/2), so the long-run probe rate matches the
// configured cadence while no two routers (or no two iterations) fire in
// lockstep. Without it a fleet restarted together would hammer every
// ejected replica at the same instants forever — the classic thundering
// herd that turns a recovering host's first seconds into a probe storm.
func jitterInterval(interval time.Duration, rng *rand.Rand) time.Duration {
	if interval <= 0 {
		return interval
	}
	return interval/2 + time.Duration(rng.Int63n(int64(interval)))
}

// probeLoop re-admits ejected replicas whose /healthz answers again. The
// query path ejects; only this loop (or a successful last-resort attempt)
// un-ejects — so a flapping host costs at most one probe interval of
// absence, not a failed user query. Each iteration re-arms a jittered
// timer rather than a fixed ticker (see jitterInterval).
func (rt *Router) probeLoop(interval time.Duration) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	t := time.NewTimer(jitterInterval(interval, rng))
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-t.C:
			t.Reset(jitterInterval(interval, rng))
			for _, g := range rt.groups {
				for _, r := range g.replicas {
					if !r.ejected.Load() {
						continue
					}
					ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
					err := r.healthy(ctx)
					cancel()
					if err == nil {
						r.consecFails.Store(0)
						if r.noteReadmitted() {
							rt.log.Printf("router: shard %d replica %d (%s) re-admitted (healthz ok)", r.shard, r.id, r.base)
						}
					}
				}
			}
		}
	}
}

// discover pulls and cross-validates every replica's index list.
func (rt *Router) discover() error {
	ctx, cancel := context.WithTimeout(context.Background(), rt.timeout)
	defer cancel()
	S := len(rt.groups)
	first := true
	for s, g := range rt.groups {
		var groupN map[string]uint64
		for ri, r := range g.replicas {
			rows, err := wire.ListIndexes(ctx, r.client, r.base)
			if err != nil {
				return fmt.Errorf("router: shard %d replica %d (%s): %w", s, ri, r.base, err)
			}
			if !first && len(rows) != len(rt.indexes) {
				return fmt.Errorf("router: shard %d replica %d serves %d indexes, shard 0 replica 0 serves %d",
					s, ri, len(rows), len(rt.indexes))
			}
			if groupN == nil {
				groupN = make(map[string]uint64, len(rows))
			}
			for _, row := range rows {
				idx := rt.indexes[row.Name]
				if idx == nil {
					if !first {
						return fmt.Errorf("router: shard %d replica %d serves index %q, shard 0 replica 0 does not", s, ri, row.Name)
					}
					idx = &routedIndex{kind: row.Kind, space: row.Space, generations: make([][]int64, S)}
					for gs, gg := range rt.groups {
						idx.generations[gs] = make([]int64, len(gg.replicas))
					}
					rt.indexes[row.Name] = idx
					rt.names = append(rt.names, row.Name)
				}
				if row.Kind != idx.kind || row.Space != idx.space {
					return fmt.Errorf("router: index %q is %s/%s on shard %d replica %d, %s/%s on shard 0 replica 0",
						row.Name, row.Kind, row.Space, s, ri, idx.kind, idx.space)
				}
				if st := row.Shard; st != nil {
					if st.Shards != S {
						return fmt.Errorf("router: index %q on shard %d replica %d belongs to a %d-shard set, router has %d shard groups",
							row.Name, s, ri, st.Shards, S)
					}
					if st.Index != s {
						return fmt.Errorf("router: shard %d replica %d (%s) serves shard %d of index %q — backends wired out of order",
							s, ri, r.base, st.Index, row.Name)
					}
				} else if ri == 0 {
					rt.log.Printf("router: index %q on shard %d carries no shard stamp; trusting the operator that shard groups hold disjoint partitions", row.Name, s)
				}
				// Replicas of one shard must serve the same subset; their
				// generations are free to differ (a rollout in flight).
				if prevN, seen := groupN[row.Name]; seen && prevN != row.N {
					return fmt.Errorf("router: index %q has n=%d on shard %d replica %d but n=%d on replica 0 — replicas serve different content",
						row.Name, row.N, s, ri, prevN)
				}
				groupN[row.Name] = row.N
				if ri == 0 {
					idx.totalN += row.N
				}
				idx.generations[s][ri] = row.Generation
			}
			first = false
		}
	}
	if len(rt.names) == 0 {
		return fmt.Errorf("router: backends serve no indexes")
	}
	sort.Strings(rt.names)
	return nil
}

// handleHealthz probes every replica and answers ready as long as each
// shard group still has at least one healthy member — the condition under
// which the router can produce complete, non-partial answers. Down replicas
// are reported either way, so an operator (or the rollout driver's
// readiness gate) sees a thinning group before it empties.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	type probe struct {
		g   *group
		rep *replica
		err error
	}
	var probes []*probe
	for _, g := range rt.groups {
		for _, rep := range g.replicas {
			probes = append(probes, &probe{g: g, rep: rep})
		}
	}
	var wg sync.WaitGroup
	for _, p := range probes {
		wg.Add(1)
		go func(p *probe) {
			defer wg.Done()
			p.err = p.rep.healthy(ctx)
		}(p)
	}
	wg.Wait()
	var down []map[string]any
	healthyPerShard := make([]int, len(rt.groups))
	for _, p := range probes {
		if p.err != nil {
			down = append(down, map[string]any{
				"shard": p.rep.shard, "replica": p.rep.id, "url": p.rep.base, "error": p.err.Error(),
			})
		} else {
			healthyPerShard[p.rep.shard]++
		}
	}
	for s, n := range healthyPerShard {
		if n == 0 {
			wire.WriteJSON(w, rt.log, http.StatusServiceUnavailable, map[string]any{
				"ready": false, "empty_shard": s, "down": down,
			})
			return
		}
	}
	if len(down) > 0 {
		// Degraded but ready: every shard still has a live replica.
		wire.WriteJSON(w, rt.log, http.StatusOK, map[string]any{"ready": true, "down": down})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

// routerIndexInfo is one row of the router's GET /v1/indexes: the merged
// view (total corpus size, shard × replica generation matrix) rather than
// any one replica's.
type routerIndexInfo struct {
	Name        string    `json:"name"`
	Kind        string    `json:"kind"`
	Space       string    `json:"space"`
	N           uint64    `json:"n"`
	Shards      int       `json:"shards"`
	Generations [][]int64 `json:"generations"`
}

// handleList answers the merged index listing with *live* generation
// vectors: every replica is re-polled so a rollout driver watching the
// matrix converge sees what each process serves right now, not what
// discovery saw at startup. A replica that fails the poll keeps its last
// known generation (the matrix never shrinks mid-roll).
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.refreshGenerations(r.Context())
	rt.gensMu.Lock()
	infos := make([]routerIndexInfo, 0, len(rt.names))
	for _, name := range rt.names {
		idx := rt.indexes[name]
		gens := make([][]int64, len(idx.generations))
		for s := range idx.generations {
			gens[s] = append([]int64(nil), idx.generations[s]...)
		}
		infos = append(infos, routerIndexInfo{
			Name: name, Kind: idx.kind, Space: idx.space,
			N: idx.totalN, Shards: len(rt.groups), Generations: gens,
		})
	}
	rt.gensMu.Unlock()
	wire.WriteJSON(w, rt.log, http.StatusOK, map[string]any{"indexes": infos})
}

// refreshGenerations re-polls every replica's index list and updates the
// cached generation matrix for the replicas that answered.
func (rt *Router) refreshGenerations(ctx context.Context) {
	ctx, cancel := context.WithTimeout(ctx, min(rt.timeout, 5*time.Second))
	defer cancel()
	type update struct {
		shard, replica int
		rows           []wire.IndexInfo
	}
	ch := make(chan update, len(rt.groups)*4)
	var wg sync.WaitGroup
	for _, g := range rt.groups {
		for _, rep := range g.replicas {
			wg.Add(1)
			go func(rep *replica) {
				defer wg.Done()
				rows, err := wire.ListIndexes(ctx, rep.client, rep.base)
				if err != nil {
					return
				}
				ch <- update{shard: rep.shard, replica: rep.id, rows: rows}
			}(rep)
		}
	}
	wg.Wait()
	close(ch)
	rt.gensMu.Lock()
	defer rt.gensMu.Unlock()
	for u := range ch {
		for _, row := range u.rows {
			if idx := rt.indexes[row.Name]; idx != nil {
				idx.generations[u.shard][u.replica] = row.Generation
			}
		}
	}
}

func (rt *Router) handleSearch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ri := rt.indexes[name]
	if ri == nil {
		wire.WriteError(w, rt.log, http.StatusNotFound, fmt.Sprintf("no index %q", name))
		return
	}
	// Front-tier accounting: every request to a routable index counts, and
	// the latency histogram sees the whole request — decode, scatter,
	// gather, merge — success or failure. Rejections additionally bump the
	// failure counter via fail (the 404 above has no index to attribute to).
	rm := rt.rm[name]
	rm.requests.Inc()
	defer rm.latency.Since(time.Now())
	fail := func(status int, msg string) {
		rm.failures.Inc()
		wire.WriteError(w, rt.log, status, msg)
	}
	req, body, err := wire.DecodeSearch(r)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	// Cap k at the full corpus size, exactly as the unsharded daemon does
	// (each shard additionally caps at its subset size on its own).
	if n := int(ri.totalN); req.K > n && n > 0 {
		req.K = n
	}
	numQueries := req.NumQueries()

	// Scatter: the original body is forwarded verbatim — every shard
	// decodes the same queries and applies the same per-request params.
	// One leg per shard group; the group picks replicas, hedges, and fails
	// over internally.
	ctx, cancel := context.WithTimeout(r.Context(), rt.timeout)
	defer cancel()
	payloads := make([]*wire.SearchResponse, len(rt.groups))
	errs := make([]error, len(rt.groups))
	var wg sync.WaitGroup
	for i, g := range rt.groups {
		wg.Add(1)
		go func(i int, g *group) {
			defer wg.Done()
			payloads[i], errs[i] = g.search(ctx, name, body, rt.hedgeDelay)
		}(i, g)
	}
	wg.Wait()

	// Classify failures. A client-side rejection from any shard becomes
	// the router's own 400: the request is equally malformed everywhere.
	// A 200 of the wrong shape (a version-skewed or buggy backend) is a
	// shard failure, and its payload is dropped so the gather below can
	// neither index past a short batch nor silently merge a shard that
	// answered the wrong question — the daemon always marshals the
	// matching field non-nil ("results": [] for an empty answer), so a
	// nil field means the field was absent, not empty.
	var failed []int
	for i, err := range errs {
		if err == nil {
			wrongShape := payloads[i] == nil ||
				(req.Query != nil && payloads[i].Results == nil) ||
				(req.Query == nil && len(payloads[i].Batch) != numQueries)
			if wrongShape {
				errs[i] = &shardFailure{shard: i, msg: "protocol error: shard answered the wrong shape"}
				payloads[i] = nil
				failed = append(failed, i)
			}
			continue
		}
		if ce, ok := err.(*clientError); ok {
			fail(http.StatusBadRequest, ce.msg)
			return
		}
		failed = append(failed, i)
	}
	if len(failed) > 0 {
		for _, i := range failed {
			rt.log.Printf("router: %v", errs[i])
		}
		if !rt.failOpen || len(failed) == len(rt.groups) {
			fail(http.StatusBadGateway,
				fmt.Sprintf("%d/%d shards failed: %v", len(failed), len(rt.groups), errs[failed[0]]))
			return
		}
	}

	// Gather: canonical (dist, id) merge of the surviving shards.
	parts := make([][]topk.Neighbor, 0, len(rt.groups))
	var resp *wire.SearchResponse
	if req.Query != nil {
		for _, p := range payloads {
			if p != nil {
				parts = append(parts, p.Results)
			}
		}
		resp = wire.Single(name, req.K, mergeTopK(req.K, parts))
	} else {
		batch := make([][]topk.Neighbor, numQueries)
		for qi := range batch {
			parts = parts[:0]
			for _, p := range payloads {
				if p != nil {
					parts = append(parts, p.Batch[qi])
				}
			}
			batch[qi] = mergeTopK(req.K, parts)
		}
		resp = wire.Batch(name, req.K, batch)
	}
	resp.Partial, resp.FailedShards = len(failed) > 0, failed
	wire.WriteJSON(w, rt.log, http.StatusOK, resp)
}
