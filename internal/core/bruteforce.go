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
)

// BruteForceOptions configures NewBruteForceFilter.
type BruteForceOptions struct {
	// NumPivots is the permutation length m. The paper found m = 128
	// to work well for the expensive distances this method targets.
	// Default 128.
	NumPivots int
	// Gamma is the candidate fraction: the filter keeps
	// max(k, Gamma*n) permutation-nearest entries for refinement.
	// Default 0.02.
	Gamma float64
	// Dist selects rho (default) or footrule for the filtering stage.
	Dist PermDist
	// Seed drives pivot sampling.
	Seed int64
}

func (o *BruteForceOptions) defaults() {
	if o.NumPivots <= 0 {
		o.NumPivots = 128
	}
	if o.Gamma <= 0 {
		o.Gamma = 0.02
	}
}

// BruteForceFilter implements brute-force searching of permutations (§2.2):
// the filtering stage scans the permutation of every data point, selects the
// gamma-nearest ones by incremental sorting, and refines them with the true
// distance. Simple, database-friendly, and per Figure 4 competitive when the
// distance is expensive (SQFD, normalized Levenshtein).
type BruteForceFilter[T any] struct {
	sp     space.Space[T]
	data   []T
	pivots *permutation.Pivots[T]
	perms  []int32 // flattened n x m
	opts   BruteForceOptions
	index.Pooled[T, bfScratch]
}

// bfScratch is the per-query state of one brute-force filter search: the
// query permutation buffers, the n-wide candidate scoring slab, and the
// refine queue.
type bfScratch struct {
	perm  permutation.Scratch
	cands []topk.Neighbor
	queue topk.Queue
}

// NewBruteForceFilter samples pivots and computes the permutation of every
// data point (in parallel).
func NewBruteForceFilter[T any](sp space.Space[T], data []T, opts BruteForceOptions) (*BruteForceFilter[T], error) {
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
	f := &BruteForceFilter[T]{
		sp:     sp,
		data:   data,
		pivots: pv,
		perms:  computePermutations(pv, data),
		opts:   opts,
	}
	f.Bind(f.search)
	return f, nil
}

// Name implements index.Index.
func (f *BruteForceFilter[T]) Name() string { return "brute-force-filt" }

// Stats implements index.Sized.
func (f *BruteForceFilter[T]) Stats() index.Stats {
	return index.Stats{
		Bytes:          int64(len(f.perms)) * 4,
		BuildDistances: int64(len(f.data)) * int64(f.pivots.M()),
	}
}

// Pivots exposes the pivot set (used by the projection-quality experiments).
func (f *BruteForceFilter[T]) Pivots() *permutation.Pivots[T] { return f.pivots }

// RankAll returns every data point ranked by permutation distance from the
// query, nearest first. It is the raw filtering stage, exposed for the
// Figure 3 experiments (recall vs. fraction of candidates scanned).
func (f *BruteForceFilter[T]) RankAll(query T) []topk.Neighbor {
	qperm := f.pivots.Permutation(query, nil)
	m := f.pivots.M()
	out := make([]topk.Neighbor, len(f.data))
	for i := range f.data {
		out[i] = topk.Neighbor{
			ID:   uint32(i),
			Dist: f.opts.Dist.distance(qperm, f.perms[i*m:(i+1)*m]),
		}
	}
	topk.ByDist(out)
	return out
}

// search is the index's one query path, run on pooled scratch by the
// embedded index.Pooled. When a trace rides the query, the filter scan,
// candidate selection and refinement are attributed to it.
func (f *BruteForceFilter[T]) search(s *bfScratch, dst []topk.Neighbor, query T, opts index.Options) []topk.Neighbor {
	k, tr := opts.K, opts.Trace
	if k <= 0 {
		return dst
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	qperm := f.pivots.PermutationWith(&s.perm, query)
	m := f.pivots.M()
	n := len(f.data)
	g := gammaCount(cmp.Or(opts.Params.Gamma, f.opts.Gamma), n, k)

	cands := scratch.Grow(s.cands, n)
	s.cands = cands
	for i := 0; i < n; i++ {
		cands[i] = topk.Neighbor{
			ID:   uint32(i),
			Dist: f.opts.Dist.distance(qperm, f.perms[i*m:(i+1)*m]),
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

// BinFilterOptions configures NewBinFilter.
type BinFilterOptions struct {
	// NumPivots is the binarized permutation length. Binary sketches
	// carry less information per element, so the paper doubles the
	// length relative to full permutations (e.g. 256 bits in place of
	// 128 ranks, §3.2). Default 256.
	NumPivots int
	// Threshold is the binarization rank threshold b: ranks >= b map to
	// one. Default NumPivots/2, which balances the two symbols.
	Threshold int
	// Gamma is the candidate fraction, as in BruteForceOptions.
	Gamma float64
	// Seed drives pivot sampling.
	Seed int64
}

func (o *BinFilterOptions) defaults() {
	if o.NumPivots <= 0 {
		o.NumPivots = 256
	}
	if o.Threshold <= 0 {
		o.Threshold = o.NumPivots / 2
	}
	if o.Gamma <= 0 {
		o.Gamma = 0.02
	}
}

// BinFilter is brute-force filtering over *binarized* permutations: each
// point stores a bit-packed sketch and the filtering stage computes Hamming
// distances with XOR + popcount (§2.2). This is the method that wins the DNA
// experiment (Figure 4f), where 256-bit sketches are 16x smaller than the
// equivalent full permutations.
type BinFilter[T any] struct {
	sp     space.Space[T]
	data   []T
	pivots *permutation.Pivots[T]
	words  int
	bits   []uint64 // flattened n x words
	opts   BinFilterOptions
	index.Pooled[T, binScratch]
}

// binScratch is the per-query state of one binarized filter search.
type binScratch struct {
	perm  permutation.Scratch
	qbits permutation.Binary
	cands []topk.Neighbor
	queue topk.Queue
}

// NewBinFilter samples pivots, computes permutations and binarizes them.
func NewBinFilter[T any](sp space.Space[T], data []T, opts BinFilterOptions) (*BinFilter[T], error) {
	opts.defaults()
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty data set")
	}
	if opts.NumPivots > len(data) {
		opts.NumPivots = len(data)
		if opts.Threshold >= opts.NumPivots {
			opts.Threshold = opts.NumPivots / 2
		}
	}
	r := rand.New(rand.NewSource(opts.Seed))
	pv, err := permutation.Sample(r, sp, data, opts.NumPivots)
	if err != nil {
		return nil, fmt.Errorf("core: sampling pivots: %w", err)
	}
	words := permutation.BinaryWords(opts.NumPivots)
	bits := make([]uint64, len(data)*words)
	parallelFor(len(data), func(i int) {
		perm := pv.Permutation(data[i], nil)
		permutation.Binarize(perm, int32(opts.Threshold), bits[i*words:(i+1)*words])
	})
	f := &BinFilter[T]{sp: sp, data: data, pivots: pv, words: words, bits: bits, opts: opts}
	f.Bind(f.search)
	return f, nil
}

// Name implements index.Index.
func (f *BinFilter[T]) Name() string { return "brute-force-filt-bin" }

// Stats implements index.Sized.
func (f *BinFilter[T]) Stats() index.Stats {
	return index.Stats{
		Bytes:          int64(len(f.bits)) * 8,
		BuildDistances: int64(len(f.data)) * int64(f.pivots.M()),
	}
}

// search is the index's one query path, run on pooled scratch by the
// embedded index.Pooled.
func (f *BinFilter[T]) search(s *binScratch, dst []topk.Neighbor, query T, opts index.Options) []topk.Neighbor {
	k, tr := opts.K, opts.Trace
	if k <= 0 {
		return dst
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	qperm := f.pivots.PermutationWith(&s.perm, query)
	s.qbits = permutation.Binarize(qperm, int32(f.opts.Threshold), s.qbits)
	n := len(f.data)
	g := gammaCount(cmp.Or(opts.Params.Gamma, f.opts.Gamma), n, k)

	cands := scratch.Grow(s.cands, n)
	s.cands = cands
	w := f.words
	for i := 0; i < n; i++ {
		h := permutation.Hamming(s.qbits, f.bits[i*w:(i+1)*w])
		cands[i] = topk.Neighbor{ID: uint32(i), Dist: float64(h)}
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
