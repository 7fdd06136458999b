// Package eval implements the evaluation protocol of §3.3 of the paper:
// repeated random data/query splits (a five-fold-like cross validation),
// exact ground truth, recall, and "improvement in efficiency" — the ratio of
// single-thread brute-force query time to the method's query time.
package eval

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/topk"
)

// Split is one data/query partition of a data set: indices into the
// original slice.
type Split struct {
	DB      []int
	Queries []int
}

// Splits generates `folds` independent random splits, each holding out
// numQueries points as queries (the paper uses five iterations with 1000 or
// 200 queries). It fails if numQueries >= n.
func Splits(r *rand.Rand, n, numQueries, folds int) ([]Split, error) {
	if numQueries <= 0 || numQueries >= n {
		return nil, fmt.Errorf("eval: numQueries %d out of range for n=%d", numQueries, n)
	}
	if folds <= 0 {
		return nil, fmt.Errorf("eval: folds must be positive")
	}
	out := make([]Split, folds)
	for f := range out {
		perm := r.Perm(n)
		s := Split{
			Queries: append([]int(nil), perm[:numQueries]...),
			DB:      append([]int(nil), perm[numQueries:]...),
		}
		out[f] = s
	}
	return out, nil
}

// Apply materializes a split over a typed data slice.
func Apply[T any](data []T, s Split) (db, queries []T) {
	db = make([]T, len(s.DB))
	for i, j := range s.DB {
		db[i] = data[j]
	}
	queries = make([]T, len(s.Queries))
	for i, j := range s.Queries {
		queries[i] = data[j]
	}
	return db, queries
}

// Recall returns the average fraction of true neighbors found: for each
// query, |got ∩ truth| / |truth|, averaged over queries.
func Recall(truth, got [][]topk.Neighbor) float64 {
	if len(truth) != len(got) {
		panic("eval: truth/got length mismatch")
	}
	if len(truth) == 0 {
		return 0
	}
	var sum float64
	for i := range truth {
		if len(truth[i]) == 0 {
			sum += 1
			continue
		}
		want := make(map[uint32]struct{}, len(truth[i]))
		for _, n := range truth[i] {
			want[n.ID] = struct{}{}
		}
		var hit int
		for _, n := range got[i] {
			if _, ok := want[n.ID]; ok {
				hit++
			}
		}
		sum += float64(hit) / float64(len(truth[i]))
	}
	return sum / float64(len(truth))
}

// Result aggregates one method measurement on one split.
type Result struct {
	Method string
	// Recall is the average k-NN recall across queries.
	Recall float64
	// QueryTime is the average wall-clock time per query.
	QueryTime time.Duration
	// BruteTime is the average sequential-scan time per query on the
	// same split, the baseline of the efficiency ratio.
	BruteTime time.Duration
	// Improvement is BruteTime / QueryTime (Figure 4's y-axis).
	Improvement float64
	// DistPerQuery is the average number of distance computations per
	// query when the space was wrapped in a Counter, else 0.
	DistPerQuery float64
	// BuildTime is how long index construction took (when measured by
	// MeasureBuild, else 0).
	BuildTime time.Duration
	// IndexBytes is the reported index footprint (when available).
	IndexBytes int64
	// Workers is the query-path parallelism the measurement ran with
	// (1 for the paper's single-thread protocol).
	Workers int
	// WallTime is the elapsed wall-clock time for the whole query batch.
	WallTime time.Duration
	// QPS is queries per second of wall-clock time: for serial runs the
	// inverse of QueryTime, for batch runs the aggregate throughput the
	// worker pool achieved.
	QPS float64
}

// Measure runs all queries through idx under opts (k and the query-time
// method params of the variant being measured), compares against the exact
// truth, and reports recall plus timing. The brute-force baseline time must
// be measured separately (see BruteTime) because it is shared by all
// methods on a split.
func Measure[T any](idx index.Index[T], queries []T, truth [][]topk.Neighbor, opts index.Options, bruteTime time.Duration, counter *space.Counter[T]) Result {
	var before int64
	if counter != nil {
		before = counter.Count()
	}
	got := make([][]topk.Neighbor, len(queries))
	start := time.Now()
	for i, q := range queries {
		got[i] = idx.SearchAppend(nil, q, opts)
	}
	elapsed := time.Since(start)

	res := Result{
		Method:    idx.Name(),
		Recall:    Recall(truth, got),
		BruteTime: bruteTime,
		Workers:   1,
		WallTime:  elapsed,
	}
	if len(queries) > 0 {
		res.QueryTime = elapsed / time.Duration(len(queries))
	}
	finishResult(&res, idx, counter, before, len(queries))
	return res
}

// MeasureBatch is Measure with the queries fanned out over a worker pool
// (engine.SearchBatch semantics: results are identical to the serial loop).
// For plain indexes QueryTime is the mean per-query latency, timed inside
// the workers, so Improvement remains comparable to the paper's
// single-thread ratio. Indexes with a native batch path (index.Batcher,
// i.e. the proximity graph) are timed as one opaque call: there QueryTime
// is wall-clock/n — the effective per-query cost of the pool — and
// Improvement is consequently a *throughput* ratio vs single-thread brute
// force, larger than the single-thread protocol's by up to the worker
// count. The throughput the pool achieved is always reported as
// WallTime/QPS. workers <= 0 means GOMAXPROCS.
func MeasureBatch[T any](idx index.Index[T], queries []T, truth [][]topk.Neighbor, opts index.Options, bruteTime time.Duration, counter *space.Counter[T], workers int) Result {
	var before int64
	if counter != nil {
		before = counter.Count()
	}
	pool := engine.NewPool(workers)
	got := make([][]topk.Neighbor, len(queries))
	durs := make([]time.Duration, len(queries))
	start := time.Now()
	if b, ok := idx.(index.Batcher[T]); ok {
		// Indexes with a native batch path (the proximity graph) are
		// timed as one call; per-query latencies are not observable.
		got = b.SearchBatch(queries, opts, pool.Workers())
	} else {
		pool.ForDynamic(len(queries), func(i int) {
			t0 := time.Now()
			got[i] = idx.SearchAppend(nil, queries[i], opts)
			durs[i] = time.Since(t0)
		})
	}
	elapsed := time.Since(start)

	res := Result{
		Method:    idx.Name(),
		Recall:    Recall(truth, got),
		BruteTime: bruteTime,
		Workers:   pool.Workers(),
		WallTime:  elapsed,
	}
	var inWorker time.Duration
	for _, d := range durs {
		inWorker += d
	}
	if len(queries) > 0 {
		if inWorker > 0 {
			res.QueryTime = inWorker / time.Duration(len(queries))
		} else {
			res.QueryTime = elapsed / time.Duration(len(queries))
		}
	}
	finishResult(&res, idx, counter, before, len(queries))
	return res
}

// finishResult fills the fields derived identically for serial and batch
// measurements.
func finishResult[T any](res *Result, idx index.Index[T], counter *space.Counter[T], before int64, numQueries int) {
	if res.QueryTime > 0 && res.BruteTime > 0 {
		res.Improvement = float64(res.BruteTime) / float64(res.QueryTime)
	}
	if res.WallTime > 0 && numQueries > 0 {
		res.QPS = float64(numQueries) / res.WallTime.Seconds()
	}
	if counter != nil && numQueries > 0 {
		res.DistPerQuery = float64(counter.Count()-before) / float64(numQueries)
	}
	if sized, ok := idx.(index.Sized); ok {
		res.IndexBytes = sized.Stats().Bytes
	}
}

// BruteTime measures the average single-thread sequential-scan time per
// query — the paper's efficiency baseline.
func BruteTime[T any](sp space.Space[T], db []T, queries []T, k int) (time.Duration, [][]topk.Neighbor) {
	scan := seqscan.New(sp, db)
	got := make([][]topk.Neighbor, len(queries))
	start := time.Now()
	for i, q := range queries {
		got[i] = scan.Search(q, k)
	}
	elapsed := time.Since(start)
	if len(queries) == 0 {
		return 0, got
	}
	return elapsed / time.Duration(len(queries)), got
}

// GroundTruth computes exact k-NN answers using all CPUs (setup only; never
// timed).
func GroundTruth[T any](sp space.Space[T], db []T, queries []T, k int) [][]topk.Neighbor {
	return seqscan.New(sp, db).SearchAll(queries, k)
}

// MeasureBuild times an index constructor.
func MeasureBuild[T any](build func() (index.Index[T], error)) (index.Index[T], time.Duration, error) {
	start := time.Now()
	idx, err := build()
	return idx, time.Since(start), err
}

// MeanResult averages results of the same method across splits (recall and
// times are averaged; footprint taken from the first).
func MeanResult(rs []Result) Result {
	if len(rs) == 0 {
		return Result{}
	}
	out := rs[0]
	var rec, imp, dpq, qps float64
	var qt, bt, bld, wall time.Duration
	for _, r := range rs {
		rec += r.Recall
		imp += r.Improvement
		dpq += r.DistPerQuery
		qps += r.QPS
		qt += r.QueryTime
		bt += r.BruteTime
		bld += r.BuildTime
		wall += r.WallTime
	}
	n := time.Duration(len(rs))
	out.Recall = rec / float64(len(rs))
	out.Improvement = imp / float64(len(rs))
	out.DistPerQuery = dpq / float64(len(rs))
	out.QPS = qps / float64(len(rs))
	out.QueryTime = qt / n
	out.BruteTime = bt / n
	out.BuildTime = bld / n
	out.WallTime = wall / n
	return out
}
