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

// QuantFilterOptions configures NewQuantFilter.
type QuantFilterOptions struct {
	// NumPivots is the full permutation length m; ranks are quantized to
	// 4 bits relative to m. Default 64.
	NumPivots int
	// PrefixLen is the number of leading pivots kept in the quantized
	// signature. 16 lanes pack into one 64-bit word, so the default of 16
	// makes the filtering scan a single-word kernel per point. Clamped to
	// NumPivots.
	PrefixLen int
	// Gamma is the candidate fraction, as in BruteForceOptions.
	Gamma float64
	// Seed drives pivot sampling.
	Seed int64
}

func (o *QuantFilterOptions) defaults() {
	if o.NumPivots <= 0 {
		o.NumPivots = 64
	}
	if o.PrefixLen <= 0 {
		o.PrefixLen = 16
	}
	if o.PrefixLen > o.NumPivots {
		o.PrefixLen = o.NumPivots
	}
	if o.Gamma <= 0 {
		o.Gamma = 0.02
	}
}

// QuantFilter is brute-force filtering over 4-bit quantized permutation
// prefixes: each point stores the nibble-packed quantized ranks of its
// PrefixLen closest-indexed pivots and the filtering stage computes the
// Footrule distance between signatures with the SWAR absolute-difference
// kernel (vecmath.NibbleL1Word), 16 lanes per word. The signature sits
// between the paper's two extremes — full permutations (32 bits per rank,
// exact Footrule) and binarized sketches (1 bit per rank, Hamming): four
// bits per rank preserve enough rank geometry to filter well while the scan
// stays word-wise and cache-linear like the binary one.
type QuantFilter[T any] struct {
	sp     space.Space[T]
	data   []T
	pivots *permutation.Pivots[T]
	words  int
	sigs   []uint64 // flattened n x words
	opts   QuantFilterOptions
	index.Pooled[T, quantScratch]
}

// quantScratch is the per-query state of one quantized filter search.
type quantScratch struct {
	perm  permutation.Scratch
	qsig  permutation.Quantized
	cands []topk.Neighbor
	queue topk.Queue
}

// NewQuantFilter samples pivots, computes permutations and quantizes their
// prefixes.
func NewQuantFilter[T any](sp space.Space[T], data []T, opts QuantFilterOptions) (*QuantFilter[T], error) {
	opts.defaults()
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty data set")
	}
	if opts.NumPivots > len(data) {
		opts.NumPivots = len(data)
		if opts.PrefixLen > opts.NumPivots {
			opts.PrefixLen = opts.NumPivots
		}
	}
	r := rand.New(rand.NewSource(opts.Seed))
	pv, err := permutation.Sample(r, sp, data, opts.NumPivots)
	if err != nil {
		return nil, fmt.Errorf("core: sampling pivots: %w", err)
	}
	words := permutation.QuantizedWords(opts.PrefixLen)
	sigs := make([]uint64, len(data)*words)
	parallelFor(len(data), func(i int) {
		perm := pv.Permutation(data[i], nil)
		permutation.Quantize(perm, opts.PrefixLen, sigs[i*words:(i+1)*words])
	})
	f := &QuantFilter[T]{sp: sp, data: data, pivots: pv, words: words, sigs: sigs, opts: opts}
	f.Bind(f.search)
	return f, nil
}

// Name implements index.Index.
func (f *QuantFilter[T]) Name() string { return "brute-force-filt-quant" }

// Stats implements index.Sized.
func (f *QuantFilter[T]) Stats() index.Stats {
	return index.Stats{
		Bytes:          int64(len(f.sigs)) * 8,
		BuildDistances: int64(len(f.data)) * int64(f.pivots.M()),
	}
}

// search is the index's one query path, run on pooled scratch by the
// embedded index.Pooled.
func (f *QuantFilter[T]) search(s *quantScratch, dst []topk.Neighbor, query T, opts index.Options) []topk.Neighbor {
	k, tr := opts.K, opts.Trace
	if k <= 0 {
		return dst
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	qperm := f.pivots.PermutationWith(&s.perm, query)
	s.qsig = permutation.Quantize(qperm, f.opts.PrefixLen, s.qsig)
	n := len(f.data)
	g := gammaCount(cmp.Or(opts.Params.Gamma, f.opts.Gamma), n, k)

	cands := scratch.Grow(s.cands, n)
	s.cands = cands
	if f.words == 1 {
		// The default signature is a single word; keeping the word kernel
		// inlined in this flat loop is what puts the quantized scan ahead
		// of the binary one.
		q0 := s.qsig[0]
		for i := 0; i < n; i++ {
			d := vecmath.NibbleL1Word(q0, f.sigs[i])
			cands[i] = topk.Neighbor{ID: uint32(i), Dist: float64(d)}
		}
	} else {
		w := f.words
		for i := 0; i < n; i++ {
			d := vecmath.NibbleL1(s.qsig, f.sigs[i*w:(i+1)*w])
			cands[i] = topk.Neighbor{ID: uint32(i), Dist: float64(d)}
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
