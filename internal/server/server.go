// Package server is the online serving layer over the persistence subsystem:
// an HTTP JSON front end that warm-starts a named set of saved indexes
// (internal/persist + the deterministic dataset generators) and answers
// k-NN queries over them. cmd/permserve is the thin daemon wrapper.
//
// # API
//
//	GET  /healthz                      liveness probe
//	GET  /statusz                      tier rows of the mutable indexes (lsm.Status)
//	GET  /metrics                      Prometheus text exposition (every counter, gauge and latency histogram)
//	GET  /v1/indexes                   list indexes + header metadata
//	POST /v1/indexes/{name}/search     answer queries (single or batch)
//	POST /v1/indexes/{name}/reload     hot-swap the index from its file
//	POST /v1/indexes/{name}/add        ingest objects (mutable indexes; WAL-durable on ack)
//	POST /v1/indexes/{name}/delete     tombstone objects (mutable indexes)
//	POST /v1/indexes/{name}/flush      seal the memtable into an immutable tier
//
// A search body carries exactly one of "query" (one object) or "queries"
// (a batch, fanned out over the worker pool), "k" (default 10), and
// optional per-request method params ("params": {"gamma": 0.05}) — the
// query-time knobs of index.Resolve, carried by this request's
// queries only. The request, response, /v1/indexes row and error body are
// declared once, in internal/wire, which the router and the control plane
// share.
//
// Which data sets a manifest may name, the distances an index over each may
// have been built under, and the JSON form of one object (a query, an added
// object) are the data-set table's to decide: internal/dataset, Lookup.
// This package switches on the five object types only, never on a name.
//
// # Timeouts
//
// A search runs on its request goroutine under Options.Timeout. The tiered
// and batch paths check the deadline between components and queries, so an
// over-budget request stops working and answers 504; nothing keeps running
// after the response. One query on one immutable index is the unit of
// work: it is not interrupted, and answers 504 if it finished late.
//
// # Consistency
//
// Every request resolves its index snapshot exactly once. A concurrent
// reload swaps a complete new snapshot in atomically; requests already
// running finish on the generation they started with, so results are never
// computed half on the old and half on the new index. Per-request params
// are values that ride the request's own queries — no index state changes —
// so tuned and plain requests run concurrently and an override can neither
// race another search nor leak into one.
//
// # Mutability
//
// An index whose manifest sets "mutable": true accepts add/delete/flush:
// writes flow into a WAL-backed LSM tree (internal/lsm) beside the index
// file, an acknowledged write survives kill -9, and searches cover base +
// sealed tiers + memtable with results identical to a flat index over the
// live set (when components search exactly). Writes and reloads exclude
// each other: a write during a reload answers 409 immediately, and a
// reload while the memtable holds unsealed writes answers 409 until a
// flush seals them.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/lsm"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Options configure the HTTP layer.
type Options struct {
	// Workers bounds the goroutines answering one batch request
	// (<= 0: GOMAXPROCS), exactly like the evaluation tools' -workers.
	Workers int
	// Timeout is the per-request execution budget; 0 means none. A
	// request over budget stops at its next cancellation point and is
	// answered 504.
	Timeout time.Duration
	// Log receives serving events; nil means the process default logger.
	Log *log.Logger
	// Metrics is the registry GET /metrics exposes and the per-index
	// counters and latency histograms record into; nil means the
	// process-wide obs.Default(). Tests pass private registries so
	// parallel servers cannot share counters.
	Metrics *obs.Registry
	// SlowQueryThreshold enables the slow-query log: a search request
	// slower than this emits one JSON line with its per-stage breakdown
	// (and always increments permserve_slow_queries_total). 0 disables
	// the log.
	SlowQueryThreshold time.Duration
	// SlowQueryEvery rate-limits the slow-query log to at most one line
	// per interval per process — a latency storm must not become a log
	// storm. 0 means a 1s default.
	SlowQueryEvery time.Duration
}

// Server routes HTTP requests over a Registry. Create with New, mount via
// Handler.
type Server struct {
	reg     *Registry
	pool    engine.Pool
	timeout time.Duration
	log     *log.Logger
	start   time.Time
	mux     *http.ServeMux

	metrics    *obs.Registry
	em         map[string]*entryMetrics
	slowThresh time.Duration
	slowEvery  time.Duration
	slowLast   atomic.Int64 // unix nanos of the last emitted slow-query line
}

// entryMetrics are one index's metric handles, resolved once at New so the
// per-request path touches atomics only — no name or label lookups. The
// stageNs counters follow obs.StageNames order.
type entryMetrics struct {
	requests    *obs.Counter
	failures    *obs.Counter
	queries     *obs.Counter
	reloads     *obs.Counter
	slow        *obs.Counter
	latency     *obs.Histogram
	filterCands *obs.Counter
	refineDists *obs.Counter
	pivotDists  *obs.Counter
	stageNs     [len(obs.StageNames)]*obs.Counter
}

// New builds a server over reg.
func New(reg *Registry, opts Options) *Server {
	s := &Server{
		reg:        reg,
		pool:       engine.NewPool(opts.Workers),
		timeout:    opts.Timeout,
		log:        opts.Log,
		start:      time.Now(),
		mux:        http.NewServeMux(),
		metrics:    opts.Metrics,
		slowThresh: opts.SlowQueryThreshold,
		slowEvery:  opts.SlowQueryEvery,
	}
	if s.log == nil {
		s.log = log.Default()
	}
	if s.metrics == nil {
		s.metrics = obs.Default()
	}
	if s.slowEvery <= 0 {
		s.slowEvery = time.Second
	}
	s.registerMetrics()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statusz", s.recovered(s.handleStatusz))
	s.mux.HandleFunc("GET /metrics", s.recovered(s.handleMetrics))
	s.mux.HandleFunc("GET /v1/indexes", s.recovered(s.handleList))
	s.mux.HandleFunc("POST /v1/indexes/{name}/search", s.recovered(s.handleSearch))
	s.mux.HandleFunc("POST /v1/indexes/{name}/reload", s.recovered(s.handleReload))
	s.mux.HandleFunc("POST /v1/indexes/{name}/add", s.recovered(s.handleAdd))
	s.mux.HandleFunc("POST /v1/indexes/{name}/delete", s.recovered(s.handleDelete))
	s.mux.HandleFunc("POST /v1/indexes/{name}/flush", s.recovered(s.handleFlush))
	return s
}

// registerMetrics registers the permserve metric families and resolves one
// entryMetrics handle set per index. Registration is idempotent on the
// registry, so several servers (or a reload) over the same registry share
// families rather than colliding.
func (s *Server) registerMetrics() {
	requests := s.metrics.Counter("permserve_search_requests_total", "Search HTTP requests received, per index.", "index")
	failures := s.metrics.Counter("permserve_search_failures_total", "Search requests answered 4xx/5xx, per index.", "index")
	queries := s.metrics.Counter("permserve_queries_total", "Individual queries answered (each batch element counts), per index.", "index")
	reloads := s.metrics.Counter("permserve_reloads_total", "Successful hot reloads, per index.", "index")
	slow := s.metrics.Counter("permserve_slow_queries_total", "Search requests over the slow-query threshold, per index.", "index")
	latency := s.metrics.Histogram("permserve_search_latency_seconds", "Search request latency (decode to response ready).", 1e-9, "index")
	cands := s.metrics.Counter("permserve_filter_candidates_total", "Candidates examined by the permutation filter stage, per index.", "index")
	dists := s.metrics.Counter("permserve_refine_distances_total", "Exact distance evaluations in the refine stage, per index.", "index")
	pivots := s.metrics.Counter("permserve_pivot_distances_total", "Query-to-pivot distance evaluations in the filter stage, per index.", "index")
	stage := s.metrics.Counter("permserve_stage_ns_total", "Cumulative time per query stage, nanoseconds.", "index", "stage")
	s.em = make(map[string]*entryMetrics, len(s.reg.Names()))
	for _, name := range s.reg.Names() {
		em := &entryMetrics{
			requests:    requests.With(name),
			failures:    failures.With(name),
			queries:     queries.With(name),
			reloads:     reloads.With(name),
			slow:        slow.With(name),
			latency:     latency.With(name),
			filterCands: cands.With(name),
			refineDists: dists.With(name),
			pivotDists:  pivots.With(name),
		}
		for i, st := range obs.StageNames {
			em.stageNs[i] = stage.With(name, st)
		}
		s.em[name] = em
	}
	start := s.start
	s.metrics.GaugeFunc("permserve_uptime_seconds", "Process uptime.", func() float64 {
		return time.Since(start).Seconds()
	})
	// runtime/metrics reads without stopping the world, unlike
	// runtime.ReadMemStats: a scrape must not pause the searches it observes.
	for _, g := range []struct{ name, help, sample string }{
		{"permserve_goroutines", "Live goroutines.", "/sched/goroutines:goroutines"},
		{"permserve_heap_alloc_bytes", "Bytes of live heap objects.", "/memory/classes/heap/objects:bytes"},
		{"permserve_heap_allocs", "Heap objects allocated since process start (cumulative).", "/gc/heap/allocs:objects"},
		{"permserve_gc_cycles", "Completed GC cycles since process start (cumulative).", "/gc/cycles/total:gc-cycles"},
	} {
		s.metrics.GaugeFunc(g.name, g.help, func() float64 {
			sample := []metrics.Sample{{Name: g.sample}}
			metrics.Read(sample)
			return float64(sample[0].Value.Uint64())
		})
	}
}

// handleMetrics serves the registry in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.WriteText(w); err != nil {
		s.log.Printf("server: writing /metrics: %v", err)
	}
}

// recordTrace folds one finished request's stage breakdown into the
// index's counters.
func (em *entryMetrics) recordTrace(tr *obs.QueryTrace) {
	em.filterCands.Add(tr.FilterCandidates)
	em.refineDists.Add(tr.RefineDistances)
	em.pivotDists.Add(tr.PivotDistances)
	for i, ns := range tr.StageNs() {
		em.stageNs[i].Add(ns)
	}
}

// Handler returns the mounted routes.
func (s *Server) Handler() http.Handler { return s.mux }

// recovered turns a handler panic into a 500 instead of a killed
// connection: net/http's own recovery closes the socket without a response,
// which a client cannot tell from a crash. Worker-pool panics arrive here
// too, re-raised by engine.Pool on the request goroutine.
func (s *Server) recovered(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.log.Printf("server: panic serving %s %s: %v", r.Method, r.URL.Path, p)
				wire.WriteError(w, s.log, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		h(w, r)
	}
}

// badRequestError marks a client-caused failure (malformed body or query,
// unknown method param); the handler answers 400 instead of 500.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

// badRequestf builds a badRequestError.
func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// indexStatus is one row of GET /statusz, present for mutable entries only:
// live counts, per-tier rows (n, seq, tombstones, kind), WAL depth/bytes and
// storage state — the observables an operator gates flushes and reloads on,
// and the one fact no other page carries. Counters are on /metrics, the
// served snapshot's kind, n, version, generation and shard on /v1/indexes.
type indexStatus struct {
	Name    string      `json:"name"`
	Mutable *lsm.Status `json:"mutable"`
}

// handleHealthz is the readiness probe: 200 "ok" only when every named
// index has a live, fully loaded snapshot; 503 with detail otherwise. The
// sharded router polls this to decide whether a shard can answer, and a
// rolling-restart driver gates traffic shifts on it. (OpenDir refuses to
// start half-loaded, so unreadiness indicates a bug rather than a boot
// phase today — the probe exists so that contract is observable, and stays
// correct if lazy loading ever arrives.)
//
// Degraded storage — a poisoned WAL, a read-only tree, quarantined tiers —
// does NOT fail the probe: searches still answer, and ejecting a replica
// over a write-path fault would turn a storage incident into a read outage.
// Instead the probe stays 200 but switches from the bare "ok" body to a
// JSON body naming each degraded index and why, so operators and smoke
// tests can observe the state while routers (which gate on the status code
// alone) keep the replica in rotation.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var notReady []string
	degraded := map[string][]string{}
	for _, name := range s.reg.Names() {
		e := s.reg.get(name)
		if e == nil || e.snap.Load() == nil {
			notReady = append(notReady, name)
			continue
		}
		if e.tree != nil {
			st := e.tree.Status()
			if reasons := st.Degraded(); len(reasons) > 0 {
				degraded[name] = reasons
			}
		}
	}
	if len(notReady) > 0 {
		wire.WriteJSON(w, s.log, http.StatusServiceUnavailable, map[string]any{
			"ready": false, "not_loaded": notReady,
		})
		return
	}
	if len(degraded) > 0 {
		wire.WriteJSON(w, s.log, http.StatusOK, map[string]any{
			"ready": true, "degraded": degraded,
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	infos := make([]wire.IndexInfo, 0, len(s.reg.Names()))
	for _, name := range s.reg.Names() {
		snap := s.reg.get(name).snap.Load()
		info := wire.IndexInfo{
			Name:       name,
			Kind:       snap.hdr.Kind,
			Space:      snap.hdr.Space,
			N:          snap.hdr.N,
			Version:    snap.hdr.Version,
			Dataset:    snap.man.Dataset,
			Seed:       snap.man.Seed,
			Generation: snap.man.Generation,
			Shard:      snap.man.Shard,
		}
		if snap.man.Shard != nil {
			info.CorpusN = snap.man.N
		}
		infos = append(infos, info)
	}
	wire.WriteJSON(w, s.log, http.StatusOK, wire.IndexList{Indexes: infos})
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	rows := []indexStatus{}
	for _, name := range s.reg.Names() {
		if e := s.reg.get(name); e.tree != nil {
			st := e.tree.Status()
			rows = append(rows, indexStatus{Name: name, Mutable: &st})
		}
	}
	wire.WriteJSON(w, s.log, http.StatusOK, map[string]any{"indexes": rows})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.reg.get(name) == nil {
		wire.WriteError(w, s.log, http.StatusNotFound, fmt.Sprintf("no index %q", name))
		return
	}
	hdr, err := s.reg.Reload(name)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, errUnsealedWrites) {
			// Not a failure of the reload machinery: the caller flushes and
			// retries. The previous generation keeps serving either way.
			status = http.StatusConflict
		}
		s.log.Printf("server: reload %q failed, previous generation stays live: %v", name, err)
		wire.WriteError(w, s.log, status, fmt.Sprintf("reload %q: %v", name, err))
		return
	}
	s.em[name].reloads.Inc()
	s.log.Printf("server: reloaded %q (%s, n=%d)", name, hdr.Kind, hdr.N)
	wire.WriteJSON(w, s.log, http.StatusOK, map[string]any{
		"reloaded": name, "kind": hdr.Kind, "space": hdr.Space, "n": hdr.N,
	})
}

// mutableEntry resolves the common preconditions of the write endpoints:
// the name must exist (404), be mutable (409) and not be mid-reload (409).
// On success the entry is returned with its ingest lock held shared; the
// caller must call release when the write is acknowledged (or failed).
func (s *Server) mutableEntry(w http.ResponseWriter, r *http.Request) (e *entry, release func(), ok bool) {
	name := r.PathValue("name")
	e = s.reg.get(name)
	if e == nil {
		wire.WriteError(w, s.log, http.StatusNotFound, fmt.Sprintf("no index %q", name))
		return nil, nil, false
	}
	if e.tree == nil {
		wire.WriteError(w, s.log, http.StatusConflict, fmt.Sprintf("index %q is not mutable (set \"mutable\": true in its manifest)", name))
		return nil, nil, false
	}
	if !e.ingestMu.TryRLock() {
		wire.WriteError(w, s.log, http.StatusConflict, fmt.Sprintf("index %q is reloading; retry", name))
		return nil, nil, false
	}
	return e, e.ingestMu.RUnlock, true
}

// writeWriteError maps a tree write failure to a status: request-shaped
// failures (bad payload, unknown id) are the client's 400; a poisoned WAL
// is 503 (the replica must be restarted or drained — retrying here cannot
// help); a read-only tree is 507 Insufficient Storage (the seal/compact
// path hit a storage failure, canonically ENOSPC); anything else is a
// storage-side 500.
func (s *Server) writeWriteError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, lsm.ErrInvalid):
		wire.WriteError(w, s.log, http.StatusBadRequest, err.Error())
	case errors.Is(err, lsm.ErrPoisoned):
		wire.WriteError(w, s.log, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, lsm.ErrReadOnly):
		wire.WriteError(w, s.log, http.StatusInsufficientStorage, err.Error())
	default:
		wire.WriteError(w, s.log, http.StatusInternalServerError, err.Error())
	}
}

// handleAdd ingests objects: body {"object": <obj>} or {"objects": [...]},
// objects in the same JSON encoding searches use for queries. The response
// lists the assigned ids in input order; when it arrives, the write is
// fsync-durable (it survives kill -9).
func (s *Server) handleAdd(w http.ResponseWriter, r *http.Request) {
	e, release, ok := s.mutableEntry(w, r)
	if !ok {
		return
	}
	defer release()
	raws, err := wire.DecodeAdd(r)
	if err != nil {
		wire.WriteError(w, s.log, http.StatusBadRequest, err.Error())
		return
	}
	ids, err := e.tree.AddBatch(raws)
	if err != nil {
		s.writeWriteError(w, err)
		return
	}
	wire.WriteJSON(w, s.log, http.StatusOK, map[string]any{"index": e.name, "ids": ids})
}

// handleDelete tombstones objects: body {"id": 7} or {"ids": [7, 9]}. Every
// id must name a distinct live object or the whole batch is rejected.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	e, release, ok := s.mutableEntry(w, r)
	if !ok {
		return
	}
	defer release()
	var req deleteRequest
	body, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, wire.MaxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, &req)
	}
	if err != nil {
		wire.WriteError(w, s.log, http.StatusBadRequest, fmt.Sprintf("malformed body: %v", err))
		return
	}
	if (req.ID == nil) == (len(req.IDs) == 0) {
		wire.WriteError(w, s.log, http.StatusBadRequest, `body must carry exactly one of "id" or a non-empty "ids"`)
		return
	}
	ids := req.all()
	if err := e.tree.DeleteBatch(ids); err != nil {
		s.writeWriteError(w, err)
		return
	}
	wire.WriteJSON(w, s.log, http.StatusOK, map[string]any{"index": e.name, "deleted": len(ids)})
}

// handleFlush seals the memtable into an immutable tier, emptying the WAL;
// afterwards a reload (or restart) needs no replay. "sealed" is null when
// there was nothing to seal.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	e, release, ok := s.mutableEntry(w, r)
	if !ok {
		return
	}
	defer release()
	st, err := e.tree.Flush()
	if err != nil {
		s.writeWriteError(w, err)
		return
	}
	wire.WriteJSON(w, s.log, http.StatusOK, map[string]any{"index": e.name, "sealed": st})
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e := s.reg.get(name)
	if e == nil {
		wire.WriteError(w, s.log, http.StatusNotFound, fmt.Sprintf("no index %q", name))
		return
	}
	em := s.em[name]
	em.requests.Inc()
	start := time.Now()
	defer em.latency.Since(start)
	fail := func(status int, msg string) {
		em.failures.Inc()
		wire.WriteError(w, s.log, status, msg)
	}

	req, _, err := wire.DecodeSearch(r)
	if err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}

	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	// The snapshot is resolved once; a concurrent reload cannot tear this
	// request.
	snap := e.snap.Load()
	// Cap k at the corpus size: Search never returns more than n results
	// anyway, and the top-k queues pre-allocate k slots per query — an
	// uncapped k would let one request allocate the daemon to death. A
	// mutable entry's corpus is its live set, which can exceed the base n —
	// or be empty, and an empty set caps k at 1, not at nothing.
	n := int(snap.hdr.N)
	if e.tree != nil {
		n = e.tree.Live()
	}
	req.K = min(req.K, max(n, 1))
	if err := req.CheckNeighbors(); err != nil {
		fail(http.StatusBadRequest, err.Error())
		return
	}
	em.queries.Add(int64(req.NumQueries()))
	var tr obs.QueryTrace
	resp, err := s.execute(ctx, snap, name, req, &tr)
	if err == nil {
		// One query on one immutable index has no cancellation point: it
		// can finish, late. The budget still decides the answer.
		err = ctx.Err()
	}
	if err != nil {
		var bad *badRequestError
		switch {
		case errors.As(err, &bad):
			fail(http.StatusBadRequest, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			fail(http.StatusGatewayTimeout, "search timed out")
		case errors.Is(err, context.Canceled):
			// Client went away; any status is unreachable, but close out.
			fail(http.StatusServiceUnavailable, "request canceled")
		default:
			fail(http.StatusInternalServerError, err.Error())
		}
		return
	}
	em.recordTrace(&tr)
	if s.slowThresh > 0 {
		if elapsed := time.Since(start); elapsed >= s.slowThresh {
			em.slow.Inc()
			s.logSlowQuery(name, req.NumQueries(), req.K, elapsed, &tr)
		}
	}
	wire.WriteJSON(w, s.log, http.StatusOK, resp)
}

// slowQueryLine is the JSON schema of one slow-query log line. Stage times
// are microseconds keyed by obs.StageNames; a stage the query never entered
// is omitted.
type slowQueryLine struct {
	Index            string             `json:"index"`
	Queries          int                `json:"queries"`
	K                int                `json:"k"`
	ElapsedUs        float64            `json:"elapsed_us"`
	ThresholdUs      float64            `json:"threshold_us"`
	FilterCandidates int64              `json:"filter_candidates"`
	RefineDistances  int64              `json:"refine_distances"`
	PivotDistances   int64              `json:"pivot_distances"`
	StageUs          map[string]float64 `json:"stage_us"`
}

// logSlowQuery emits one rate-limited slow-query line: a CAS on the last
// emission time admits at most one line per slowEvery across all request
// goroutines, while the slow counter (incremented by the caller) still
// counts every threshold crossing.
func (s *Server) logSlowQuery(name string, numQueries, k int, elapsed time.Duration, tr *obs.QueryTrace) {
	now := time.Now().UnixNano()
	last := s.slowLast.Load()
	if now-last < int64(s.slowEvery) || !s.slowLast.CompareAndSwap(last, now) {
		return
	}
	line := slowQueryLine{
		Index:            name,
		Queries:          numQueries,
		K:                k,
		ElapsedUs:        float64(elapsed.Nanoseconds()) / 1e3,
		ThresholdUs:      float64(s.slowThresh.Nanoseconds()) / 1e3,
		FilterCandidates: tr.FilterCandidates,
		RefineDistances:  tr.RefineDistances,
		PivotDistances:   tr.PivotDistances,
		StageUs:          map[string]float64{},
	}
	for i, ns := range tr.StageNs() {
		if ns > 0 {
			line.StageUs[obs.StageNames[i]] = float64(ns) / 1e3
		}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return
	}
	s.log.Printf("server: slow_query %s", blob)
}

// execute answers one validated request on one snapshot, on the caller's
// goroutine. ctx cancellation is cooperative: the tiered and batch search
// paths check it between components/queries and return its error, so a
// timed-out request releases its workers promptly.
func (s *Server) execute(ctx context.Context, snap *snapshot, name string, req wire.SearchRequest, tr *obs.QueryTrace) (*wire.SearchResponse, error) {
	opts := index.Options{K: req.K, Ctx: ctx, Trace: tr, Params: snap.params}
	if len(req.Params) > 0 {
		// Validated and resolved once per request, then overlaid key by
		// key on the snapshot's defaults; the value rides every query.
		over, err := index.Resolve(snap.hdr.Kind, index.NamedParams(req.Params))
		if err != nil {
			return nil, badRequestf("%v", err)
		}
		opts.Params = snap.params.Overlay(over)
	}

	if req.Query != nil {
		nbs, err := snap.served.search(req.Query, opts)
		if err != nil {
			return nil, err
		}
		return wire.Single(name, req.K, nbs), nil
	}
	outs, err := snap.served.searchBatch(req.Queries, opts, s.pool)
	if err != nil {
		return nil, err
	}
	return wire.Batch(name, req.K, outs), nil
}
