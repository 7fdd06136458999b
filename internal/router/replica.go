package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// replica is one serving process inside a shard's replica group: its HTTP
// client, health state, and /metrics handles. The embedded http.Client
// pools connections (keep-alives on by default), so steady-state queries
// reuse sockets instead of re-dialing per request.
//
// Health state is two words updated lock-free from the query path: an
// infrastructure failure bumps consecFails, and crossing the group's
// ejection threshold flips ejected — after which the group stops routing
// regular traffic here (the replica only sees last-resort attempts) until
// the router's background prober sees /healthz answer 200 again.
type replica struct {
	shard, id int    // shard index, replica position within the group
	base      string // e.g. "http://10.0.0.1:8080", no trailing slash
	// client serves queries under the per-shard timeout; health probes use
	// a tighter budget so a wedged replica cannot stall readiness checks.
	client *http.Client
	health *http.Client

	consecFails atomic.Int32 // consecutive infrastructure failures
	ejected     atomic.Bool  // out of the regular rotation until re-admitted

	m replicaMetrics
}

// replicaMetrics are one replica's lifetime counters: the
// permrouter_replica_* families (labeled shard,replica) on /metrics.
// Ejections and readmissions count transitions only, so a replica is out of
// the rotation exactly when its ejections exceed its readmissions.
type replicaMetrics struct {
	requests     *obs.Counter   // search attempts routed here (hedges included)
	failures     *obs.Counter   // search calls that returned no usable answer
	hedges       *obs.Counter   // speculative attempts launched against this replica
	latency      *obs.Histogram // per-attempt wall time
	ejections    *obs.Counter
	readmissions *obs.Counter
}

// noteEjected flips the replica out of rotation, returning true on the
// false->true transition (which is also counted as an ejection metric).
func (r *replica) noteEjected() bool {
	if r.ejected.Swap(true) {
		return false
	}
	r.m.ejections.Inc()
	return true
}

// noteReadmitted flips the replica back into rotation, returning true on
// the true->false transition (counted as a re-admission metric).
func (r *replica) noteReadmitted() bool {
	if !r.ejected.Swap(false) {
		return false
	}
	r.m.readmissions.Inc()
	return true
}

// newReplica resolves the replica's metric children in reg (registration
// is idempotent), so every label child exists from the first scrape — a
// dashboard sees zeroes, not absent series, before traffic arrives.
func newReplica(reg *obs.Registry, shardIdx, id int, base string, timeout time.Duration) *replica {
	ss, rs := strconv.Itoa(shardIdx), strconv.Itoa(id)
	return &replica{
		shard:  shardIdx,
		id:     id,
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: timeout},
		health: &http.Client{Timeout: min(timeout, 2*time.Second)},
		m: replicaMetrics{
			requests:     reg.Counter("permrouter_replica_requests_total", "Search attempts routed to the replica (hedges included).", "shard", "replica").With(ss, rs),
			failures:     reg.Counter("permrouter_replica_failures_total", "Replica attempts that returned no usable answer.", "shard", "replica").With(ss, rs),
			hedges:       reg.Counter("permrouter_replica_hedges_total", "Speculative attempts launched against the replica.", "shard", "replica").With(ss, rs),
			latency:      reg.Histogram("permrouter_replica_latency_seconds", "Per-attempt replica call latency.", 1e-9, "shard", "replica").With(ss, rs),
			ejections:    reg.Counter("permrouter_replica_ejections_total", "Rotation ejections after consecutive failures.", "shard", "replica").With(ss, rs),
			readmissions: reg.Counter("permrouter_replica_readmissions_total", "Re-admissions into the rotation (probe or last-resort success).", "shard", "replica").With(ss, rs),
		},
	}
}

// shardFailure is an infrastructure failure of one replica (transport
// error, timeout, or 5xx): the group fails over to the next replica, and
// the degraded-mode policy (fail-open vs fail-closed) applies only when a
// whole group is exhausted. Client-caused rejections are clientError.
type shardFailure struct {
	shard   int
	replica int
	status  int // HTTP status, 0 for transport errors
	msg     string
}

func (e *shardFailure) Error() string {
	if e.status != 0 {
		return fmt.Sprintf("shard %d replica %d: status %d: %s", e.shard, e.replica, e.status, e.msg)
	}
	return fmt.Sprintf("shard %d replica %d: %s", e.shard, e.replica, e.msg)
}

// clientError is a replica's 4xx verdict on the request itself (malformed
// query, bad params). A request malformed for one replica is malformed for
// all — the router forwards the verdict as its own 400 and never counts it
// against the replica.
type clientError struct{ msg string }

func (e *clientError) Error() string { return e.msg }

// search posts a query (or batch) body to this replica and decodes the
// answer, updating the counters. Hedging and failover live one level up, in
// the group (group.search): a replica only ever makes single attempts.
func (r *replica) search(ctx context.Context, name string, body []byte) (*wire.SearchResponse, error) {
	r.m.requests.Inc()
	defer r.m.latency.Since(time.Now())

	p, err := r.doSearch(ctx, name, body)
	if _, client := err.(*clientError); err != nil && !client {
		r.m.failures.Inc()
	}
	return p, err
}

// doSearch is one attempt: POST, classify the status, decode the payload.
func (r *replica) doSearch(ctx context.Context, name string, body []byte) (*wire.SearchResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		r.base+"/v1/indexes/"+url.PathEscape(name)+"/search", bytes.NewReader(body))
	if err != nil {
		return nil, &shardFailure{shard: r.shard, replica: r.id, msg: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, &shardFailure{shard: r.shard, replica: r.id, msg: err.Error()}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, wire.MaxBodyBytes))
	if err != nil {
		return nil, &shardFailure{shard: r.shard, replica: r.id, msg: err.Error()}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		var p wire.SearchResponse
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, &shardFailure{shard: r.shard, replica: r.id, msg: fmt.Sprintf("undecodable answer: %v", err)}
		}
		return &p, nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return nil, &clientError{msg: wire.ErrorBody(raw)}
	default:
		return nil, &shardFailure{shard: r.shard, replica: r.id, status: resp.StatusCode, msg: wire.ErrorBody(raw)}
	}
}

// healthy probes the replica's /healthz readiness endpoint.
func (r *replica) healthy(ctx context.Context) error {
	if err := wire.Healthy(ctx, r.health, r.base); err != nil {
		return fmt.Errorf("shard %d replica %d: %w", r.shard, r.id, err)
	}
	return nil
}
