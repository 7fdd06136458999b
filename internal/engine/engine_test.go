package engine_test

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/lsh"
	"repro/internal/obs"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/topk"
)

func TestPoolWorkers(t *testing.T) {
	if got := engine.NewPool(4).Workers(); got != 4 {
		t.Fatalf("NewPool(4).Workers() = %d", got)
	}
	if got := engine.NewPool(0).Workers(); got < 1 {
		t.Fatalf("NewPool(0).Workers() = %d", got)
	}
	if got := engine.NewPool(-3).Workers(); got < 1 {
		t.Fatalf("NewPool(-3).Workers() = %d", got)
	}
	var zero engine.Pool
	if got := zero.Workers(); got < 1 {
		t.Fatalf("zero Pool Workers() = %d", got)
	}
}

func TestPoolForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		for _, n := range []int{0, 1, 5, 100, 1000} {
			hits := make([]int32, n)
			engine.NewPool(workers).For(n, func(_, i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d hit %d times", workers, n, i, h)
				}
			}
		}
	}
}

// TestPoolForDynamicCoversEveryIndexOnce: under skewed per-index cost the
// work-pulling loop still hands out each index exactly once — a worker stuck
// on an expensive index must not make another repeat or skip its share.
func TestPoolForDynamicCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 500
		hits := make([]int32, n)
		engine.NewPool(workers).For(n, func(_, i int) {
			if i%50 == 0 {
				for j := 0; j < 100; j++ {
					runtime.Gosched()
				}
			}
			atomic.AddInt32(&hits[i], 1)
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestPoolForWorkerRange(t *testing.T) {
	p := engine.NewPool(3)
	var bad atomic.Int32
	p.For(200, func(worker, i int) {
		if worker < 0 || worker >= p.Workers() {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d invocations saw a worker id outside [0, %d)", bad.Load(), p.Workers())
	}
}

// mustPanic runs f, which is expected to panic with value want, and fails
// the test if it returns normally or panics with anything else. A hang here
// (the pre-fix failure mode: a dead worker deadlocking wg.Wait) is caught by
// the test binary's own timeout.
func mustPanic(t *testing.T, want any, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != want {
			t.Fatalf("recovered %v, want panic %v", r, want)
		}
	}()
	f()
	t.Fatal("call returned normally, want panic")
}

func TestPoolForPropagatesPanic(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := engine.NewPool(workers)
		mustPanic(t, "boom-for", func() {
			p.For(100, func(_, i int) {
				if i == 37 {
					panic("boom-for")
				}
			})
		})
		mustPanic(t, "boom-ctx", func() {
			p.ForCtx(context.Background(), 100, func(_, i int) {
				if i == 37 {
					panic("boom-ctx")
				}
			})
		})
	}
}

// TestPoolForPanicCancelsRemainingWork: once one iteration panics, workers
// stop pulling new iterations instead of grinding through the rest of the
// range. The panicking iteration is the very first one pulled, so at most
// one in-flight iteration per other worker may still run — far fewer than n.
func TestPoolForPanicCancelsRemainingWork(t *testing.T) {
	const n = 100000
	var ran atomic.Int32
	mustPanic(t, "early", func() {
		engine.NewPool(4).For(n, func(_, i int) {
			if ran.Add(1) == 1 {
				panic("early")
			}
		})
	})
	if got := ran.Load(); got == n {
		t.Fatalf("all %d iterations ran despite the first panicking", n)
	}
}

// TestPoolForPanicPoolReusable: a pool that has trapped a panic is a plain
// value and must keep working for subsequent loops.
func TestPoolForPanicPoolReusable(t *testing.T) {
	p := engine.NewPool(3)
	mustPanic(t, "once", func() { p.For(10, func(_, _ int) { panic("once") }) })
	var hits atomic.Int32
	p.For(50, func(_, _ int) { hits.Add(1) })
	if hits.Load() != 50 {
		t.Fatalf("loop after panic ran %d/50 iterations", hits.Load())
	}
}

// panickyIndex explodes on its n-th Search call, standing in for a bug in
// any real index's Search.
type panickyIndex struct {
	inner index.Index[[]float32]
	calls atomic.Int32
	bad   int32 // which call (1-based) panics
}

func (p *panickyIndex) Search(q []float32, k int) []topk.Neighbor {
	return p.SearchAppend(nil, q, index.Options{K: k})
}

func (p *panickyIndex) SearchAppend(dst []topk.Neighbor, q []float32, opts index.Options) []topk.Neighbor {
	if p.calls.Add(1) == p.bad {
		panic("search exploded")
	}
	return p.inner.SearchAppend(dst, q, opts)
}

func (p *panickyIndex) Name() string { return "panicky" }

func TestSearchBatchPropagatesSearchPanic(t *testing.T) {
	db, queries := batchData(t, 50, 20)
	idx := &panickyIndex{inner: seqscan.New[[]float32](space.L2{}, db), bad: 13}
	mustPanic(t, "search exploded", func() {
		batch(engine.NewPool(4), index.Index[[]float32](idx), queries, 3)
	})
}

// batch runs an uncancellable, untraced batch at k with default params.
func batch[T any](p engine.Pool, idx index.Index[T], queries []T, k int) [][]topk.Neighbor {
	out, _ := engine.SearchBatch(p, idx, queries, index.Options{K: k})
	return out
}

// serialLoop is the reference semantics SearchBatch must reproduce.
func serialLoop[T any](idx index.Index[T], queries []T, k int) [][]topk.Neighbor {
	out := make([][]topk.Neighbor, len(queries))
	for i, q := range queries {
		out[i] = idx.Search(q, k)
	}
	return out
}

// batchData is a small dense-vector workload shared by the equivalence
// tests.
func batchData(t testing.TB, n, q int) (db, queries [][]float32) {
	t.Helper()
	data := dataset.SIFT(11, n+q)
	return data[:n], data[n:]
}

// checkBatchMatchesSerial runs the serial reference and SearchBatch on idx
// across worker counts and edge-case ks.
func checkBatchMatchesSerial[T any](t *testing.T, name string, db []T, queries []T, idx index.Index[T]) {
	t.Helper()
	n := len(db)
	for _, k := range []int{1, 10, n + 17} { // includes k > n
		want := serialLoop(idx, queries, k)
		for _, workers := range []int{1, 2, 8} {
			got := batch(engine.NewPool(workers), idx, queries, k)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s: k=%d workers=%d: batch differs from serial loop", name, k, workers)
			}
		}
	}
	// Empty batch and k <= 0.
	if got := batch(engine.Pool{}, idx, nil, 10); len(got) != 0 {
		t.Fatalf("%s: empty batch returned %d results", name, len(got))
	}
	got := batch(engine.Pool{}, idx, queries, 0)
	if len(got) != len(queries) {
		t.Fatalf("%s: k=0 batch has %d slots, want %d", name, len(got), len(queries))
	}
	for i, r := range got {
		if r != nil {
			t.Fatalf("%s: k=0 query %d returned %d neighbors", name, i, len(r))
		}
	}
}

func TestSearchBatchSeqScan(t *testing.T) {
	db, queries := batchData(t, 300, 25)
	checkBatchMatchesSerial(t, "seqscan", db, queries, seqscan.New[[]float32](space.L2{}, db))
}

func TestSearchBatchNAPP(t *testing.T) {
	db, queries := batchData(t, 300, 25)
	na, err := core.NewNAPP[[]float32](space.L2{}, db, core.NAPPOptions{
		NumPivots: 64, NumPivotIndex: 16, MinShared: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkBatchMatchesSerial(t, "napp", db, queries, na)
}

func TestSearchBatchLSH(t *testing.T) {
	db, queries := batchData(t, 300, 25)
	x, err := lsh.New(db, lsh.Options{Tables: 8, Hashes: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkBatchMatchesSerial(t, "mplsh", db, queries, x)
}

func TestSearchBatchSWGraph(t *testing.T) {
	db, queries := batchData(t, 300, 25)
	g, err := knngraph.NewSW[[]float32](space.L2{}, db, knngraph.Options{NN: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	checkBatchMatchesSerial(t, "sw-graph", db, queries, g)
}

// TestSearchBatchCarriesOptions verifies what rides a batch: every query
// runs under the batch's params (answers match a serial loop under the same
// params and differ from the default), and the per-worker traces merged
// into the batch's trace account for exactly the serial loop's work.
func TestSearchBatchCarriesOptions(t *testing.T) {
	db, queries := batchData(t, 300, 25)
	na, err := core.NewNAPP[[]float32](space.L2{}, db, core.NAPPOptions{
		NumPivots: 64, NumPivotIndex: 16, MinShared: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	var serialTrace, batchTrace obs.QueryTrace
	opts := index.Options{K: 10, Params: index.Params{MinShared: 4}}
	want := make([][]topk.Neighbor, len(queries))
	opts.Trace = &serialTrace
	for i, q := range queries {
		want[i] = na.SearchAppend(nil, q, opts)
	}
	opts.Trace = &batchTrace
	got, err := engine.SearchBatch[[]float32](engine.NewPool(4), na, queries, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("batch under params differs from the serial loop under the same params")
	}
	if reflect.DeepEqual(got, serialLoop[[]float32](na, queries, 10)) {
		t.Fatal("t=4 answers equal the t=1 default's; the params did not reach the queries")
	}
	if batchTrace.FilterCandidates != serialTrace.FilterCandidates || batchTrace.RefineDistances != serialTrace.RefineDistances {
		t.Fatalf("merged worker traces saw candidates=%d refines=%d, serial loop %d/%d",
			batchTrace.FilterCandidates, batchTrace.RefineDistances, serialTrace.FilterCandidates, serialTrace.RefineDistances)
	}
}
