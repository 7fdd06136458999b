package router

import (
	"context"
	"log"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// group is one shard's replica set: every member serves the identical shard
// content (same partitioner subset, byte-identical answers), so the group
// is free to spread load round-robin, hedge a laggard's request against a
// *different* replica, and fail over on error — a single host loss inside a
// group is invisible to the client, not a "partial": true answer.
type group struct {
	shard    int
	replicas []*replica
	rr       atomic.Uint64 // round-robin cursor for load spreading
	// ejectAfter is the consecutive-infrastructure-failure threshold past
	// which a replica leaves the regular rotation; the router's background
	// prober re-admits it once /healthz answers again.
	ejectAfter int32
	log        *log.Logger
	// mLatency / mFailovers are the shard-level /metrics handles
	// (permrouter_shard_*).
	mLatency   *obs.Histogram
	mFailovers *obs.Counter
}

// newGroup resolves the shard's metric children in reg; replicas are
// appended by the caller.
func newGroup(reg *obs.Registry, shardIdx int, ejectAfter int32, lg *log.Logger) *group {
	ss := strconv.Itoa(shardIdx)
	return &group{
		shard:      shardIdx,
		ejectAfter: ejectAfter,
		log:        lg,
		mLatency:   reg.Histogram("permrouter_shard_latency_seconds", "Per-shard scatter-leg latency, failovers and hedges included.", 1e-9, "shard").With(ss),
		mFailovers: reg.Counter("permrouter_shard_failovers_total", "Failover attempts launched after a replica failure, per shard.", "shard").With(ss),
	}
}

// candidates returns the group's replicas in attempt order: the healthy
// ones first, rotated by the round-robin cursor so steady-state load
// spreads evenly, then the ejected ones as a last resort — a group whose
// every replica is ejected still tries rather than failing outright (the
// probe loop may simply not have re-admitted a recovered host yet).
func (g *group) candidates() []*replica {
	n := len(g.replicas)
	start := int(g.rr.Add(1)-1) % n
	ordered := make([]*replica, 0, n)
	var ejected []*replica
	for i := 0; i < n; i++ {
		r := g.replicas[(start+i)%n]
		if r.ejected.Load() {
			ejected = append(ejected, r)
		} else {
			ordered = append(ordered, r)
		}
	}
	return append(ordered, ejected...)
}

// search answers one scatter leg for this shard: try replicas in candidate
// order, failing over immediately on an infrastructure error and hedging a
// speculative attempt against the *next* replica when the current one has
// not answered within hedgeDelay (with one replica, the hedge degenerates
// to the duplicate-to-self insurance of the unreplicated router). The first
// success wins; a 4xx verdict returns immediately (a malformed request is
// malformed on every replica); the shard as a whole fails only when every
// attempt is exhausted.
func (g *group) search(ctx context.Context, name string, body []byte, hedgeDelay time.Duration) (*wire.SearchResponse, error) {
	legStart := time.Now()
	cands := g.candidates()
	// At most one attempt per distinct replica, plus one speculative
	// duplicate when hedging is on (so a single-replica group retries once
	// and a multi-replica group can wrap to a second attempt on the
	// round-robin start).
	maxAttempts := len(cands)
	if hedgeDelay > 0 {
		maxAttempts++
	}
	type outcome struct {
		r   *replica
		p   *wire.SearchResponse
		err error
	}
	ch := make(chan outcome, maxAttempts)
	attempts := 0
	launch := func(speculative bool) {
		r := cands[attempts%len(cands)]
		attempts++
		if speculative {
			r.m.hedges.Inc()
		}
		go func() {
			p, err := r.search(ctx, name, body)
			ch <- outcome{r, p, err}
		}()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if hedgeDelay > 0 {
		t := time.NewTimer(hedgeDelay)
		defer t.Stop()
		hedgeC = t.C
	}
	pending := 1
	var firstErr error
	for {
		select {
		case o := <-ch:
			pending--
			if o.err == nil {
				g.noteSuccess(o.r)
				// Shard latency is the whole leg — candidate ordering,
				// failovers and hedges included — because that is what the
				// gather barrier actually waits on.
				g.mLatency.Since(legStart)
				return o.p, nil
			}
			if _, client := o.err.(*clientError); client {
				// The replica judged the request malformed; a failover
				// cannot change that verdict.
				return nil, o.err
			}
			g.noteFailure(o.r)
			if firstErr == nil {
				firstErr = o.err
			}
			// An infrastructure failure fails over immediately (no point
			// waiting out the hedge timer against a dead socket).
			if attempts < maxAttempts {
				hedgeC = nil
				g.mFailovers.Inc()
				launch(false)
				pending++
				continue
			}
			if pending == 0 {
				return nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			if attempts < maxAttempts {
				launch(true)
				pending++
			}
		case <-ctx.Done():
			return nil, &shardFailure{shard: g.shard, msg: ctx.Err().Error()}
		}
	}
}

// noteSuccess resets the replica's failure streak; a success from an
// ejected replica (a last-resort attempt that worked) re-admits it without
// waiting for the prober.
func (g *group) noteSuccess(r *replica) {
	r.consecFails.Store(0)
	if r.noteReadmitted() {
		g.log.Printf("router: shard %d replica %d (%s) re-admitted (answered a last-resort attempt)", r.shard, r.id, r.base)
	}
}

// noteFailure bumps the replica's failure streak and ejects it at the
// threshold.
func (g *group) noteFailure(r *replica) {
	if r.consecFails.Add(1) >= g.ejectAfter && r.noteEjected() {
		g.log.Printf("router: shard %d replica %d (%s) ejected after %d consecutive failures; probing for re-admission", r.shard, r.id, r.base, g.ejectAfter)
	}
}
