package engine_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/topk"
)

// TestForCtxPreCanceled: an already-canceled context runs zero
// iterations on both the serial (small n) and worker-pool (large n) paths.
func TestForCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, n := range []int{1, 1000} {
		var ran atomic.Int32
		err := engine.NewPool(4).ForCtx(ctx, n, func(_, _ int) { ran.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("n=%d: err = %v, want context.Canceled", n, err)
		}
		if got := ran.Load(); got != 0 {
			t.Fatalf("n=%d: %d iterations ran on a pre-canceled context", n, got)
		}
	}
}

// TestForCtxCancelMidway: canceling while the loop is running cuts it
// short — the loop returns ctx.Err() having completed at most the in-flight
// items, not the whole range.
func TestForCtxCancelMidway(t *testing.T) {
	const n = 100000
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := engine.NewPool(4).ForCtx(ctx, n, func(_, _ int) {
		if ran.Add(1) == 10 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n/2 {
		t.Fatalf("%d of %d iterations ran after cancellation; loop did not stop", got, n)
	}
}

// slowIndex delays every Search so a cancellation test can observe the
// batch being cut short rather than racing it to completion.
type slowIndex struct {
	inner index.Index[[]float32]
	calls atomic.Int32
}

func (s *slowIndex) Search(q []float32, k int) []topk.Neighbor {
	return s.SearchAppend(nil, q, index.Options{K: k})
}

func (s *slowIndex) SearchAppend(dst []topk.Neighbor, q []float32, opts index.Options) []topk.Neighbor {
	s.calls.Add(1)
	time.Sleep(2 * time.Millisecond)
	return s.inner.SearchAppend(dst, q, opts)
}

func (s *slowIndex) Name() string { return "slow" }

// TestSearchBatchCtxCanceled pins the serving-path contract the ISSUE
// calls "a canceled batch returns promptly": cancellation mid-batch yields
// a nil result and ctx.Err() well before the remaining queries would have
// run, and a pre-canceled context answers nothing at all.
func TestSearchBatchCtxCanceled(t *testing.T) {
	db, queries := batchData(t, 50, 256)
	idx := &slowIndex{inner: seqscan.New[[]float32](space.L2{}, db)}

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := engine.SearchBatch(engine.NewPool(4), index.Index[[]float32](idx), queries, index.Options{K: 3, Ctx: pre})
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled batch = (%v, %v), want (nil, context.Canceled)", out, err)
	}
	if got := idx.calls.Load(); got != 0 {
		t.Fatalf("pre-canceled batch ran %d searches", got)
	}

	// With 4 workers × 2ms per query, 256 queries take ~128ms serially per
	// worker; cancel after ~4 queries' worth and require the call back well
	// under the full-batch time.
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Millisecond)
	defer cancel()
	start := time.Now()
	out, err = engine.SearchBatch(engine.NewPool(4), index.Index[[]float32](idx), queries, index.Options{K: 3, Ctx: ctx})
	elapsed := time.Since(start)
	if out != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("canceled batch = (%v, %v), want (nil, context.DeadlineExceeded)", out, err)
	}
	if answered := idx.calls.Load(); answered >= int32(len(queries)) {
		t.Fatalf("all %d queries ran despite cancellation", answered)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("canceled batch took %v to return", elapsed)
	}
}

// cancelingL2 is L2 that cancels a context on its n-th Distance call once
// armed: a cancellation that arrives from inside a query, not between two.
type cancelingL2 struct {
	space.L2
	calls  atomic.Int64
	n      int64
	cancel context.CancelFunc
}

func (c *cancelingL2) Distance(a, b []float32) float64 {
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return c.L2.Distance(a, b)
}

// TestSearchBatchGraphCtxCanceled: a proximity-graph batch is a batch like
// any other — a context cancelled from inside its first query stops the
// workers at the next query boundary and the call returns the context's
// error, not a partly or fully answered batch.
func TestSearchBatchGraphCtxCanceled(t *testing.T) {
	db, queries := batchData(t, 300, 128)
	sp := &cancelingL2{}
	g, err := knngraph.NewSW[[]float32](sp, db, knngraph.Options{NN: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sp.calls.Store(0)
	if _, err := engine.SearchBatch[[]float32](engine.NewPool(4), g, queries, index.Options{K: 10}); err != nil {
		t.Fatal(err)
	}
	whole := sp.calls.Load()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp.n, sp.cancel = 3, cancel
	sp.calls.Store(0)
	out, err := engine.SearchBatch[[]float32](engine.NewPool(4), g, queries, index.Options{K: 10, Ctx: ctx})
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("batch cancelled from inside its first query = (%d answers, %v), want (nil, context.Canceled)", len(out), err)
	}
	// At most the four in-flight queries finish: a small share of the batch.
	if spent := sp.calls.Load(); spent > whole/8 {
		t.Fatalf("cancelled batch evaluated %d distances, the whole batch costs %d", spent, whole)
	}
}
