package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/permutation"
	"repro/internal/scratch"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// DistVecFilter is the ablation counterpart of BruteForceFilter: instead of
// converting the vector of pivot distances into a permutation (rank vector),
// it keeps the raw distances and filters by L2 between distance vectors.
// §2.1 of the paper reports that the rank conversion — despite losing
// information — performs slightly *better*; this index exists so that claim
// can be re-verified (BenchmarkAblation_PermVsDistVec and the corresponding
// test).
type DistVecFilter[T any] struct {
	sp     space.Space[T]
	data   []T
	pivots *permutation.Pivots[T]
	vecs   []float32 // flattened n x m raw distances
	opts   BruteForceOptions
	index.Pooled[T, dvScratch]
}

// dvScratch is the per-query state of one distance-vector filter search.
type dvScratch struct {
	qd    []float64
	qv    []float32
	cands []topk.Neighbor
	queue topk.Queue
}

// NewDistVecFilter samples pivots and stores raw pivot-distance vectors.
// The options are shared with BruteForceFilter; Dist is ignored (the filter
// always compares by L2 between distance vectors).
func NewDistVecFilter[T any](sp space.Space[T], data []T, opts BruteForceOptions) (*DistVecFilter[T], error) {
	opts.defaults()
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty data set")
	}
	if opts.NumPivots > len(data) {
		opts.NumPivots = len(data)
	}
	r := rand.New(rand.NewSource(opts.Seed))
	pv, err := permutation.Sample(r, sp, data, opts.NumPivots)
	if err != nil {
		return nil, fmt.Errorf("core: sampling pivots: %w", err)
	}
	m := pv.M()
	vecs := make([]float32, len(data)*m)
	parallelFor(len(data), func(i int) {
		ds := pv.Distances(data[i], nil)
		for j, d := range ds {
			vecs[i*m+j] = float32(d)
		}
	})
	f := &DistVecFilter[T]{sp: sp, data: data, pivots: pv, vecs: vecs, opts: opts}
	f.Bind(f.search)
	return f, nil
}

// Name implements index.Index.
func (f *DistVecFilter[T]) Name() string { return "distvec-filt" }

// Stats implements index.Sized.
func (f *DistVecFilter[T]) Stats() index.Stats {
	return index.Stats{
		Bytes:          int64(len(f.vecs)) * 4,
		BuildDistances: int64(len(f.data)) * int64(f.pivots.M()),
	}
}

// search is the index's one query path, run on pooled scratch by the
// embedded index.Pooled.
func (f *DistVecFilter[T]) search(s *dvScratch, dst []topk.Neighbor, query T, opts index.Options) []topk.Neighbor {
	k, tr := opts.K, opts.Trace
	if k <= 0 {
		return dst
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	m := f.pivots.M()
	s.qd = f.pivots.Distances(query, s.qd)
	qv := scratch.Grow(s.qv, m)
	s.qv = qv
	for j, d := range s.qd {
		qv[j] = float32(d)
	}
	n := len(f.data)
	g := gammaCount(cmp.Or(opts.Params.Gamma, f.opts.Gamma), n, k)
	cands := scratch.Grow(s.cands, n)
	s.cands = cands
	for i := 0; i < n; i++ {
		cands[i] = topk.Neighbor{
			ID:   uint32(i),
			Dist: vecmath.L2Sqr(qv, f.vecs[i*m:(i+1)*m]),
		}
	}
	if tr != nil {
		tr.FilterCandidates += int64(n)
		obs.AddSince(&tr.FilterNs, t0)
		t0 = time.Now()
	}
	best := topk.SelectK(cands, g)
	if tr != nil {
		obs.AddSince(&tr.MergeNs, t0)
	}
	return refineInto(f.sp, f.data, query, best, k, &s.queue, dst, tr)
}
