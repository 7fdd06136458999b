// Package engine is the shared concurrency substrate of the repository: a
// bounded worker pool (Pool) whose one work-pulling loop (For, and ForCtx
// when it may be cancelled) runs every parallel loop — index construction in
// internal/core, k-means assignment in internal/cluster, graph construction
// in internal/knngraph, tier compaction in internal/lsm — and a batch query
// engine (SearchBatch) that fans a slab of queries out over the pool against
// any index.Index.
//
// Keeping the idiom in one place matters for two reasons. First, the paper's
// evaluation protocol is single-threaded, so every concurrent path must be
// an explicit opt-in that leaves the serial semantics intact: SearchBatch is
// defined to return exactly what a serial Search loop would return, in the
// same order. Second, the serving stack builds on the same fan-out/fan-in
// shape — the HTTP daemon's batch requests run through SearchBatch — so one
// audited implementation beats N ad-hoc WaitGroups.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/topk"
)

// panicTrap collects the first panic raised by any worker goroutine of one
// parallel loop. A panic inside a bare goroutine would kill the whole
// process (and, were it swallowed, would leave wg.Wait deadlocked on a
// worker that never finishes); instead every worker recovers into
// the trap, the trap's stop flag cancels the remaining iterations of all
// workers, and the caller re-panics with the original value after wg.Wait —
// so a panicking f behaves exactly as it would in the serial loop: the
// caller sees the panic, the process does not die from a goroutine, and no
// goroutines are left behind. The serving layer relies on this to turn a
// panicking Search into an HTTP 500 instead of a crashed daemon.
type panicTrap struct {
	stop  atomic.Bool
	once  sync.Once
	value any
}

// guard is deferred by every worker; it records the panic (first wins) and
// stops the loop.
func (t *panicTrap) guard() {
	if r := recover(); r != nil {
		t.once.Do(func() { t.value = r })
		t.stop.Store(true)
	}
}

// rethrow re-raises the recorded panic on the calling goroutine, if any.
// Safe to read t.value without the Once: wg.Wait orders it before the read.
func (t *panicTrap) rethrow() {
	if t.value != nil {
		panic(t.value)
	}
}

// Pool bounds the number of goroutines a parallel loop may use; For is the
// loop. The zero value is a valid pool running at GOMAXPROCS. Pools are
// values, not resources: they hold no goroutines between calls and are safe
// to copy and to use from multiple goroutines.
type Pool struct {
	workers int
}

// NewPool returns a pool of at most workers goroutines; workers <= 0 means
// GOMAXPROCS (the paper indexes with four threads; we default to all CPUs).
func NewPool(workers int) Pool {
	if workers < 0 {
		workers = 0
	}
	return Pool{workers: workers}
}

// Workers returns the effective worker count.
func (p Pool) Workers() int {
	if p.workers > 0 {
		return p.workers
	}
	return runtime.GOMAXPROCS(0)
}

// clamp returns the goroutine count for a loop of n iterations.
func (p Pool) clamp(n int) int {
	w := p.Workers()
	if w > n {
		w = n
	}
	return w
}

// For runs f(worker, i) for every i in [0, n), workers pulling one item at
// a time from a shared counter. worker is the pulling goroutine's id in
// [0, Workers()), so callers can keep per-worker state (RNGs, scratch
// buffers) without locking. Iterations must be independent. The per-item
// atomic add buys load balance for skewed work — k-NN queries vary wildly in
// candidate-set size — and is noise next to even one distance computation.
//
// If f panics, the remaining iterations are cancelled and the panic
// resurfaces on the caller, as it would in a serial loop.
func (p Pool) For(n int, f func(worker, i int)) {
	p.ForCtx(context.Background(), n, f)
}

// ForCtx is For with cooperative cancellation: workers check ctx between
// items and stop pulling once it is done, so a batch whose client has gone
// away — a server timeout, a closed connection — releases its pool workers
// after at most one in-flight item each instead of grinding through the
// remaining iterations. It returns ctx.Err() when the loop was cut short,
// nil when every iteration ran. Completed iterations are never undone; the
// caller owns deciding whether partial output is usable (the batch query
// engine discards it).
func (p Pool) ForCtx(ctx context.Context, n int, f func(worker, i int)) error {
	w := p.clamp(n)
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			f(0, i)
		}
		return nil
	}
	var trap panicTrap
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for t := 0; t < w; t++ {
		go func(worker int) {
			defer wg.Done()
			defer trap.guard()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || trap.stop.Load() || ctx.Err() != nil {
					return
				}
				f(worker, i)
			}
		}(t)
	}
	wg.Wait()
	trap.rethrow()
	return ctx.Err()
}

// SearchBatch answers a batch of queries concurrently on p. out[i] is
// exactly what the i-th call of the serial loop
//
//	for i, q := range queries { out[i] = idx.SearchAppend(nil, q, opts) }
//
// would have produced, regardless of worker count or scheduling: each
// worker writes only its own queries' slots, and every index's answer is a
// pure function of (query, opts) — the index.Index contract.
//
// A search that panics cancels the rest of the batch and re-panics on the
// caller (see Pool.For), exactly as a serial loop would fail.
//
// Cancellation is cooperative: workers stop pulling queries once opts.Ctx
// is done and the call returns its error with a nil result — a
// partially-answered batch is never returned, matching the all-or-nothing
// contract of the serial loop.
//
// When opts.Trace is non-nil each worker records its queries' stage
// counters and timings into a private per-worker trace (no cross-worker
// contention on the hot path), and the per-worker traces are summed into
// opts.Trace after the batch completes. Because workers run concurrently,
// the summed stage times measure total work, not wall-clock elapsed time.
func SearchBatch[T any](p Pool, idx index.Index[T], queries []T, opts index.Options) ([][]topk.Neighbor, error) {
	if err := opts.Err(); err != nil {
		return nil, err
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([][]topk.Neighbor, len(queries))
	// Slots are indexed by worker id; each is touched by exactly one
	// worker goroutine (ForCtx's contract), so no locking.
	var traces []obs.QueryTrace
	if opts.Trace != nil {
		traces = make([]obs.QueryTrace, p.clamp(len(queries)))
	}
	err := p.ForCtx(ctx, len(queries), func(worker, i int) {
		wopts := opts
		if traces != nil {
			wopts.Trace = &traces[worker]
		}
		out[i] = idx.SearchAppend(nil, queries[i], wopts)
	})
	for w := range traces {
		opts.Trace.Merge(&traces[w])
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}
