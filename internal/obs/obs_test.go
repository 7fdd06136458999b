package obs

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestBucketBoundaries walks every bucket edge over the full int64 range:
// bucketOf must be monotone, BucketLow/BucketHigh must invert it exactly,
// and adjacent buckets must tile without gaps or overlaps.
func TestBucketBoundaries(t *testing.T) {
	if got := bucketOf(0); got != 0 {
		t.Fatalf("bucketOf(0) = %d", got)
	}
	prevHigh := int64(-1)
	for i := 0; i < NumBuckets; i++ {
		lo, hi := BucketLow(i), BucketHigh(i)
		if lo != prevHigh+1 {
			t.Fatalf("bucket %d: low %d, previous high %d (gap or overlap)", i, lo, prevHigh)
		}
		if hi < lo {
			t.Fatalf("bucket %d: high %d < low %d", i, hi, lo)
		}
		if got := bucketOf(lo); got != i {
			t.Fatalf("bucketOf(low=%d) = %d, want %d", lo, got, i)
		}
		if got := bucketOf(hi); got != i {
			t.Fatalf("bucketOf(high=%d) = %d, want %d", hi, got, i)
		}
		prevHigh = hi
	}
	if prevHigh != math.MaxInt64 {
		t.Fatalf("last bucket high = %d, want MaxInt64", prevHigh)
	}
}

// TestBucketRelativeError: for values >= 2^subBits the bucket width is at
// most value/2^subBits, i.e. 6.25% relative resolution; below that, exact.
func TestBucketRelativeError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100000; trial++ {
		v := rng.Int63n(1 << uint(4+rng.Intn(59)))
		b := bucketOf(v)
		lo, hi := BucketLow(b), BucketHigh(b)
		if v < lo || v > hi {
			t.Fatalf("v=%d outside its bucket [%d,%d]", v, lo, hi)
		}
		if v < 1<<subBits {
			if lo != v || hi != v {
				t.Fatalf("small v=%d not exact: [%d,%d]", v, lo, hi)
			}
			continue
		}
		if b < NumBuckets-1 {
			width := hi - lo + 1
			if width > v>>subBits+1 {
				t.Fatalf("v=%d bucket width %d exceeds v/16+1", v, width)
			}
		}
	}
}

// parsedPage is the path permctl reads quantiles through: the registry's
// exposition, parsed back by ParseText.
func parsedPage(t *testing.T, reg *Registry) *TextMetrics {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	tm, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseText rejected our own exposition: %v", err)
	}
	return tm
}

// TestRecordOverflowAndClamp: negative values clamp to zero, MaxInt64
// lands in the top bucket, whose exposition edge is +Inf, and count/sum stay
// consistent.
func TestRecordOverflowAndClamp(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("obs_test_values", "test", 1).With()
	h.Record(-5)
	h.Record(0)
	h.Record(math.MaxInt64)
	var s HistSnapshot
	h.Snapshot(&s)
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Buckets[0] != 2 {
		t.Fatalf("zero bucket = %d, want 2 (negative clamped)", s.Buckets[0])
	}
	if s.Buckets[NumBuckets-1] != 1 {
		t.Fatalf("top bucket = %d, want 1", s.Buckets[NumBuckets-1])
	}
	q1, n, ok := parsedPage(t, reg).Quantile("obs_test_values", nil, 1)
	if !ok || n != 3 || !math.IsInf(q1, 1) {
		t.Fatalf("q1 = %v over %d (ok=%v), want +Inf over 3", q1, n, ok)
	}
}

// TestQuantileOracle draws values from several distributions and checks
// every quantile TextMetrics.Quantile reads from the parsed exposition (at
// scale 1, so edges are the recorded units) against an exact sorted oracle:
// the estimate must never undershoot and may overshoot by at most the bucket
// resolution (1/16 relative, +1 for integer edges).
func TestQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dists := map[string]func() int64{
		"uniform-small": func() int64 { return rng.Int63n(100) },
		"uniform-wide":  func() int64 { return rng.Int63n(1 << 40) },
		"exponentialish": func() int64 {
			return int64(math.Exp(rng.Float64() * 20)) // spans ~9 decades
		},
		"latency-like": func() int64 { // microseconds-to-seconds in ns
			base := int64(50_000)
			if rng.Intn(100) == 0 {
				return base * int64(1+rng.Intn(1000)) // tail
			}
			return base + rng.Int63n(200_000)
		},
	}
	for name, draw := range dists {
		reg := NewRegistry()
		h := reg.Histogram("obs_test_values", "test", 1).With()
		vals := make([]int64, 20000)
		for i := range vals {
			vals[i] = draw()
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		tm := parsedPage(t, reg)
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1} {
			rank := int(math.Ceil(q * float64(len(vals))))
			if rank < 1 {
				rank = 1
			}
			exact := vals[rank-1]
			est, n, ok := tm.Quantile("obs_test_values", nil, q)
			if !ok || n != int64(len(vals)) {
				t.Fatalf("%s: Quantile ok=%v over %d, want %d observations", name, ok, n, len(vals))
			}
			if est < float64(exact) {
				t.Errorf("%s q=%g: estimate %g below exact %d", name, q, est, exact)
			}
			bound := exact + exact>>subBits + 1
			if est > float64(bound) {
				t.Errorf("%s q=%g: estimate %g above bound %d (exact %d)", name, q, est, bound, exact)
			}
		}
	}
}

// TestConcurrentRecordSnapshot hammers Record from many goroutines while
// snapshots and exposition writes run concurrently; meaningful under
// -race. The final snapshot must account for every record.
func TestConcurrentRecordSnapshot(t *testing.T) {
	reg := NewRegistry()
	hv := reg.Histogram("obs_test_latency_seconds", "test", 1e-9, "worker")
	const workers = 8
	const perWorker = 5000
	hists := make([]*Histogram, workers)
	for i := range hists {
		hists[i] = hv.With(string(rune('a' + i)))
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader: snapshots + full exposition
		defer readers.Done()
		var s HistSnapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			hists[0].Snapshot(&s)
			if s.Count < 0 {
				t.Error("negative snapshot count")
				return
			}
			var sb strings.Builder
			if err := reg.WriteText(&sb); err != nil {
				t.Errorf("WriteText: %v", err)
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				hists[w].Record(rng.Int63n(1 << 30))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	var total int64
	var s HistSnapshot
	for _, h := range hists {
		h.Snapshot(&s)
		total += s.Count
	}
	if total != workers*perWorker {
		t.Fatalf("total recorded %d, want %d", total, workers*perWorker)
	}
}

// TestCounterGauge covers the scalar types' contracts: a counter is
// monotone, and a gauge is computed when the page is written.
func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters are monotone
	if c.Load() != 5 {
		t.Fatalf("counter = %d, want 5", c.Load())
	}
	reg := NewRegistry()
	v := 7.0
	reg.GaugeFunc("obs_test_value", "h", func() float64 { return v })
	for _, want := range []float64{7, 4} {
		v = want
		tm := parsedPage(t, reg)
		if len(tm.Samples) != 1 || tm.Samples[0].Value != want {
			t.Fatalf("gauge samples = %+v, want one of value %v", tm.Samples, want)
		}
	}
}

// TestInfo: an info family is one gauge sample of 1 carrying its label, and
// registering the same fact again adds nothing.
func TestInfo(t *testing.T) {
	reg := NewRegistry()
	reg.Info("obs_test_info", "h", "arm", "avx2")
	reg.Info("obs_test_info", "h", "arm", "avx2")
	tm := parsedPage(t, reg)
	if tm.Types["obs_test_info"] != "gauge" {
		t.Fatalf("obs_test_info is a %q, want a gauge", tm.Types["obs_test_info"])
	}
	if len(tm.Samples) != 1 || tm.Samples[0].Value != 1 || tm.Samples[0].Labels["arm"] != "avx2" {
		t.Fatalf("info samples = %+v, want one {arm=avx2} of 1", tm.Samples)
	}
}

// TestRegistryIdempotentAndConflicts: same-shape re-registration resolves
// to the same child; shape conflicts panic.
func TestRegistryIdempotentAndConflicts(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("obs_test_total", "h", "index").With("x")
	b := reg.Counter("obs_test_total", "h", "index").With("x")
	if a != b {
		t.Fatal("re-registration returned a different child")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind conflict did not panic")
			}
		}()
		reg.GaugeFunc("obs_test_total", "h", func() float64 { return 0 })
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("label conflict did not panic")
			}
		}()
		reg.Counter("obs_test_total", "h", "shard")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("invalid name did not panic")
			}
		}()
		reg.Counter("0bad", "h")
	}()
}

// TestQueryTraceMerge checks the batch-path fold.
func TestQueryTraceMerge(t *testing.T) {
	a := QueryTrace{FilterCandidates: 1, RefineDistances: 2, FilterNs: 3, RefineNs: 4, MergeNs: 5, BaseNs: 6, TierNs: 7, MemtableNs: 8, MaskNs: 9, Components: 10, PivotDistances: 11}
	b := a
	b.Merge(&a)
	want := QueryTrace{FilterCandidates: 2, RefineDistances: 4, FilterNs: 6, RefineNs: 8, MergeNs: 10, BaseNs: 12, TierNs: 14, MemtableNs: 16, MaskNs: 18, Components: 20, PivotDistances: 22}
	if b != want {
		t.Fatalf("merge = %+v, want %+v", b, want)
	}
	b.Reset()
	if b != (QueryTrace{}) {
		t.Fatalf("reset = %+v", b)
	}
}

// TestRecordAllocFree: Record and Snapshot into a caller-owned snapshot
// must not allocate (they sit on the warm search path).
func TestRecordAllocFree(t *testing.T) {
	var h Histogram
	var s HistSnapshot
	if n := testing.AllocsPerRun(100, func() {
		h.Record(12345)
		h.Record(1 << 40)
	}); n != 0 {
		t.Fatalf("Record allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		h.Snapshot(&s)
	}); n != 0 {
		t.Fatalf("Snapshot allocates %v/op", n)
	}
	var c Counter
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
	}); n != 0 {
		t.Fatalf("Counter allocates %v/op", n)
	}
}
