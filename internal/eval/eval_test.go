package eval

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/topk"
)

func TestSplitsDisjointAndComplete(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	splits, err := Splits(r, 100, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 5 {
		t.Fatalf("%d splits", len(splits))
	}
	for _, s := range splits {
		if len(s.Queries) != 10 || len(s.DB) != 90 {
			t.Fatalf("split sizes %d/%d", len(s.Queries), len(s.DB))
		}
		seen := map[int]bool{}
		for _, i := range append(append([]int(nil), s.DB...), s.Queries...) {
			if seen[i] {
				t.Fatal("index appears twice in one split")
			}
			if i < 0 || i >= 100 {
				t.Fatal("index out of range")
			}
			seen[i] = true
		}
		if len(seen) != 100 {
			t.Fatal("split does not cover data set")
		}
	}
}

func TestSplitsValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if _, err := Splits(r, 10, 10, 5); err == nil {
		t.Fatal("numQueries == n accepted")
	}
	if _, err := Splits(r, 10, 0, 5); err == nil {
		t.Fatal("numQueries == 0 accepted")
	}
	if _, err := Splits(r, 10, 5, 0); err == nil {
		t.Fatal("folds == 0 accepted")
	}
}

func TestApply(t *testing.T) {
	data := []string{"a", "b", "c", "d"}
	db, q := Apply(data, Split{DB: []int{0, 2}, Queries: []int{3}})
	if len(db) != 2 || db[0] != "a" || db[1] != "c" {
		t.Fatalf("db = %v", db)
	}
	if len(q) != 1 || q[0] != "d" {
		t.Fatalf("q = %v", q)
	}
}

func TestRecallKnownValues(t *testing.T) {
	truth := [][]topk.Neighbor{
		{{ID: 1}, {ID: 2}},
		{{ID: 3}, {ID: 4}},
	}
	got := [][]topk.Neighbor{
		{{ID: 1}, {ID: 2}}, // 100%
		{{ID: 3}, {ID: 9}}, // 50%
	}
	if r := Recall(truth, got); r != 0.75 {
		t.Fatalf("recall = %v, want 0.75", r)
	}
	if r := Recall(nil, nil); r != 0 {
		t.Fatalf("empty recall = %v", r)
	}
	// Empty truth for a query counts as satisfied.
	if r := Recall([][]topk.Neighbor{{}}, [][]topk.Neighbor{{}}); r != 1 {
		t.Fatalf("empty-truth recall = %v", r)
	}
}

func TestRecallPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Recall(make([][]topk.Neighbor, 1), nil)
}

func randData(r *rand.Rand, n, dim int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		out[i] = v
	}
	return out
}

func TestMeasureExactScanHasPerfectRecall(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	db := randData(r, 500, 8)
	queries := randData(r, 20, 8)
	truth := GroundTruth[[]float32](space.L2{}, db, queries, 5)
	bt, got := BruteTime[[]float32](space.L2{}, db, queries, 5)
	if Recall(truth, got) != 1 {
		t.Fatal("brute force does not match ground truth")
	}
	scan := seqscan.New[[]float32](space.L2{}, db)
	for _, workers := range []int{0, 1, 3} {
		res := Measure[[]float32](scan, queries, truth, index.Options{K: 5}, bt, workers)
		if res.Recall != 1 {
			t.Fatalf("workers=%d: recall = %v", workers, res.Recall)
		}
		if res.Method != "seqscan" {
			t.Fatalf("method = %q", res.Method)
		}
		if res.Workers != max(workers, 1) {
			t.Fatalf("workers=%d ran on %d", workers, res.Workers)
		}
		if res.QueryTime <= 0 || res.Improvement <= 0 || res.QPS <= 0 {
			t.Fatalf("workers=%d: timing not populated: %+v", workers, res)
		}
	}
}

func TestMeasureBuild(t *testing.T) {
	idx, dur, err := MeasureBuild[[]float32](func() (index.Index[[]float32], error) {
		time.Sleep(time.Millisecond)
		return seqscan.New[[]float32](space.L2{}, [][]float32{{1}}), nil
	})
	if err != nil || idx == nil {
		t.Fatal(err)
	}
	if dur < time.Millisecond {
		t.Fatalf("build time %v", dur)
	}
}

func TestMeanResult(t *testing.T) {
	rs := []Result{
		{Method: "x", Recall: 0.8, Improvement: 10, QueryTime: 10 * time.Microsecond},
		{Method: "x", Recall: 1.0, Improvement: 20, QueryTime: 30 * time.Microsecond},
	}
	m := MeanResult(rs)
	if m.Recall != 0.9 || m.Improvement != 15 || m.QueryTime != 20*time.Microsecond {
		t.Fatalf("mean = %+v", m)
	}
	if MeanResult(nil).Method != "" {
		t.Fatal("empty mean should be zero")
	}
}
