// Package eval implements the evaluation protocol of §3.3 of the paper:
// repeated random data/query splits (a five-fold-like cross validation),
// exact ground truth, recall, and "improvement in efficiency" — the ratio of
// single-thread brute-force query time to the method's query time.
package eval

import (
	"cmp"
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
	// QPS is queries per second of wall-clock time: the aggregate
	// throughput the worker pool achieved (one worker: 1/QueryTime).
	QPS float64
}

// Measure runs all queries through idx under opts (k and the query-time
// method params of the variant being measured) on a pool of workers
// goroutines, compares against the exact truth, and reports recall plus
// timing. workers 0 or 1 is the paper's single-thread protocol, negative
// means GOMAXPROCS; answers are identical either way (engine.SearchBatch
// semantics). QueryTime is the mean per-query latency, timed inside the
// workers, so Improvement stays comparable to the paper's single-thread
// ratio at any worker count; the throughput the pool achieved is reported as
// WallTime/QPS. The brute-force baseline time must be measured separately
// (see BruteTime) because it is shared by all methods on a split.
func Measure[T any](idx index.Index[T], queries []T, truth [][]topk.Neighbor, opts index.Options, bruteTime time.Duration, workers int) Result {
	pool := engine.NewPool(cmp.Or(workers, 1))
	got := make([][]topk.Neighbor, len(queries))
	durs := make([]time.Duration, len(queries))
	start := time.Now()
	pool.For(len(queries), func(_, i int) {
		t0 := time.Now()
		got[i] = idx.SearchAppend(nil, queries[i], opts)
		durs[i] = time.Since(t0)
	})
	elapsed := time.Since(start)

	res := Result{
		Method:    idx.Name(),
		Recall:    Recall(truth, got),
		BruteTime: bruteTime,
		Workers:   pool.Workers(),
		WallTime:  elapsed,
	}
	if len(queries) > 0 {
		var inWorker time.Duration
		for _, d := range durs {
			inWorker += d
		}
		res.QueryTime = inWorker / time.Duration(len(queries))
		res.QPS = float64(len(queries)) / elapsed.Seconds()
	}
	if res.QueryTime > 0 && res.BruteTime > 0 {
		res.Improvement = float64(res.BruteTime) / float64(res.QueryTime)
	}
	if sized, ok := idx.(index.Sized); ok {
		res.IndexBytes = sized.Stats().Bytes
	}
	return res
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
	var rec, imp, qps float64
	var qt, bt, bld, wall time.Duration
	for _, r := range rs {
		rec += r.Recall
		imp += r.Improvement
		qps += r.QPS
		qt += r.QueryTime
		bt += r.BruteTime
		bld += r.BuildTime
		wall += r.WallTime
	}
	n := time.Duration(len(rs))
	out.Recall = rec / float64(len(rs))
	out.Improvement = imp / float64(len(rs))
	out.QPS = qps / float64(len(rs))
	out.QueryTime = qt / n
	out.BruteTime = bt / n
	out.BuildTime = bld / n
	out.WallTime = wall / n
	return out
}
