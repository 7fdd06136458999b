package core

import (
	"repro/internal/codec"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/permutation"
	"repro/internal/scratch"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// ScanFilter is brute-force filtering (§2.2): every data point stores a
// fixed-width row derived from its distances to the pivots, the filter
// scores all n rows against the query's row, and the pipeline refines the
// gamma*n best. Simple, database-friendly, and per Figure 4 competitive when
// the distance is expensive (SQFD, normalized Levenshtein). The four
// brute-force kinds are this one type over four row codecs:
//
//   - NewBruteForceFilter keeps the full permutation, 32 bits per rank,
//     compared by Spearman's rho or the Footrule.
//   - NewBinFilter keeps the binarized permutation, one bit per rank,
//     compared by Hamming distance (XOR + popcount). This is the method that
//     wins the DNA experiment (Figure 4f), where 256-bit sketches are 16x
//     smaller than the equivalent full permutations.
//   - NewQuantFilter keeps a prefix of the ranks quantized to 4 bits,
//     compared by the Footrule with the SWAR kernel of internal/vecmath, 16
//     lanes per word. It sits between the paper's two extremes: four bits
//     per rank preserve enough rank geometry to filter well while the scan
//     stays word-wise and cache-linear like the binary one.
//   - NewDistVecFilter is the ablation counterpart of the first: it keeps
//     the raw pivot distances and compares by L2. §2.1 of the paper reports
//     that the rank conversion — despite losing information — performs
//     slightly *better*; this kind exists so that claim can be re-verified
//     (BenchmarkAblation_PermVsDistVec and the corresponding test).
type ScanFilter[T any] struct {
	data   []T
	pivots *permutation.Pivots[T]
	rows   rowCodec
	pipeline[T, scanScratch]
}

// rowCodec is one representation of a point's view of the pivots: how a row
// is encoded from the point's pivot distances, how all rows are scored
// against a query's, and how the rows and their options are persisted. The
// codec is chosen once per index, so a query pays one dynamic call and then
// runs a loop written for its representation.
type rowCodec interface {
	// tag is the kind's codec tag, which is also its report name.
	tag() string
	gamma() float64
	// alloc sizes the row store for n points.
	alloc(n int)
	// put encodes row i from the pivot distances in view.Dists. Calls for
	// distinct i may run concurrently, each with its own view.
	put(i int, view *permutation.Scratch)
	// scan encodes the query's row once from s.view.Dists and writes every
	// data row's filter distance to it into out (len(out) rows).
	scan(s *scanScratch, out []topk.Neighbor)
	bytes() int64
	// save and load move the payload that follows the pivot ids: the
	// effective options, then the rows. load flags a payload that does not
	// fit m pivots and n points as corrupt.
	save(cw *codec.Writer)
	load(cr *codec.Reader, m, n int)
}

// scanScratch is the per-query state of one scan: the query's pivot
// distances and ranks, its encoded row (words for the bit-packed codecs, vec
// for the distance vectors), and the n-wide scoring slab.
type scanScratch struct {
	view  permutation.Scratch
	words []uint64
	vec   []float32
	cands []topk.Neighbor
}

// newScanFilter encodes one row per data point (in parallel) and binds the
// pipeline.
func newScanFilter[T any](sp space.Space[T], data []T, pv *permutation.Pivots[T], rows rowCodec) *ScanFilter[T] {
	rows.alloc(len(data))
	var pool engine.Pool
	views := make([]permutation.Scratch, pool.Workers())
	pool.For(len(data), func(worker, i int) {
		v := &views[worker]
		pv.DistancesWith(v, data[i])
		rows.put(i, v)
	})
	f := &ScanFilter[T]{data: data, pivots: pv, rows: rows}
	f.bind(f, sp, f.data, rows.gamma())
	return f
}

// Name implements index.Index.
func (f *ScanFilter[T]) Name() string { return f.rows.tag() }

// Pivots exposes the pivot set (used by the projection-quality experiments).
func (f *ScanFilter[T]) Pivots() *permutation.Pivots[T] { return f.pivots }

func (f *ScanFilter[T]) size() (int64, int) { return f.rows.bytes(), f.pivots.M() }

func (f *ScanFilter[T]) filter(s *scanScratch, query T, _ int, _ index.Params) (candidates, int, int) {
	f.pivots.DistancesWith(&s.view, query)
	s.cands = scratch.Grow(s.cands, len(f.data))
	f.rows.scan(s, s.cands)
	return candidates{scored: s.cands}, len(s.cands), s.view.Measured
}

// RankAll returns every data point ranked by filter distance from the
// query, nearest first. It is the raw filtering stage, exposed for the
// Figure 3 experiments (recall vs. fraction of candidates scanned).
func (f *ScanFilter[T]) RankAll(query T) []topk.Neighbor {
	var s scanScratch
	c, _, _ := f.filter(&s, query, 0, index.Params{})
	topk.ByDist(c.scored)
	return c.scored
}

// BruteForceOptions configures NewBruteForceFilter and NewDistVecFilter.
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

// NewBruteForceFilter samples pivots and stores the permutation of every
// data point.
func NewBruteForceFilter[T any](sp space.Space[T], data []T, opts BruteForceOptions) (*ScanFilter[T], error) {
	opts.defaults()
	pv, err := samplePivots(sp, data, &opts.NumPivots, opts.Seed)
	if err != nil {
		return nil, err
	}
	return newScanFilter(sp, data, pv, &permRows{opts: opts}), nil
}

// permRows stores full permutations, flattened n x m.
type permRows struct {
	opts  BruteForceOptions
	perms []int32
}

func (c *permRows) tag() string    { return codec.KindBruteForce }
func (c *permRows) gamma() float64 { return c.opts.Gamma }
func (c *permRows) alloc(n int)    { c.perms = make([]int32, n*c.opts.NumPivots) }
func (c *permRows) bytes() int64   { return int64(len(c.perms)) * 4 }

func (c *permRows) put(i int, view *permutation.Scratch) {
	copy(c.perms[i*c.opts.NumPivots:], view.Ranks())
}

func (c *permRows) scan(s *scanScratch, out []topk.Neighbor) {
	q, m, perms := s.view.Ranks(), c.opts.NumPivots, c.perms
	if c.opts.Dist == FootruleDist {
		for i := range out {
			out[i] = topk.Neighbor{ID: uint32(i), Dist: permutation.Footrule(q, perms[i*m:(i+1)*m])}
		}
		return
	}
	for i := range out {
		out[i] = topk.Neighbor{ID: uint32(i), Dist: permutation.SpearmanRho(q, perms[i*m:(i+1)*m])}
	}
}

func (c *permRows) save(cw *codec.Writer) {
	cw.Int(c.opts.NumPivots)
	cw.F64(c.opts.Gamma)
	cw.U8(uint8(c.opts.Dist))
	cw.I64(c.opts.Seed)
	cw.I32s(c.perms)
}

func (c *permRows) load(cr *codec.Reader, m, n int) {
	c.opts.NumPivots = cr.Int()
	c.opts.Gamma = cr.F64()
	c.opts.Dist = PermDist(cr.U8())
	c.opts.Seed = cr.I64()
	c.perms = cr.I32s()
	if c.opts.NumPivots != m || len(c.perms) != n*m || c.opts.Gamma <= 0 {
		cr.Corruptf("inconsistent brute-force sections (m=%d, pivots=%d, perms=%d)", c.opts.NumPivots, m, len(c.perms))
	}
}

// NewDistVecFilter samples pivots and stores raw pivot-distance vectors.
// The options are shared with BruteForceFilter; Dist is ignored (the filter
// always compares by L2 between distance vectors).
func NewDistVecFilter[T any](sp space.Space[T], data []T, opts BruteForceOptions) (*ScanFilter[T], error) {
	opts.defaults()
	pv, err := samplePivots(sp, data, &opts.NumPivots, opts.Seed)
	if err != nil {
		return nil, err
	}
	return newScanFilter(sp, data, pv, &distRows{opts: opts}), nil
}

// distRows stores raw pivot distances as float32, flattened n x m.
type distRows struct {
	opts BruteForceOptions
	vecs []float32
}

func (c *distRows) tag() string    { return codec.KindDistVec }
func (c *distRows) gamma() float64 { return c.opts.Gamma }
func (c *distRows) alloc(n int)    { c.vecs = make([]float32, n*c.opts.NumPivots) }
func (c *distRows) bytes() int64   { return int64(len(c.vecs)) * 4 }

func (c *distRows) put(i int, view *permutation.Scratch) {
	float32s(c.vecs[i*c.opts.NumPivots:], view.Dists)
}

// float32s stores the float64 distances ds into dst as float32.
func float32s(dst []float32, ds []float64) {
	for j, d := range ds {
		dst[j] = float32(d)
	}
}

func (c *distRows) scan(s *scanScratch, out []topk.Neighbor) {
	m, vecs := c.opts.NumPivots, c.vecs
	q := scratch.Grow(s.vec, m)
	s.vec = q
	float32s(q, s.view.Dists)
	for i := range out {
		out[i] = topk.Neighbor{ID: uint32(i), Dist: vecmath.L2Sqr(q, vecs[i*m:(i+1)*m])}
	}
}

func (c *distRows) save(cw *codec.Writer) {
	cw.Int(c.opts.NumPivots)
	cw.F64(c.opts.Gamma)
	cw.I64(c.opts.Seed)
	cw.F32s(c.vecs)
}

func (c *distRows) load(cr *codec.Reader, m, n int) {
	c.opts.NumPivots = cr.Int()
	c.opts.Gamma = cr.F64()
	c.opts.Seed = cr.I64()
	c.vecs = cr.F32s()
	if c.opts.NumPivots != m || len(c.vecs) != n*m || c.opts.Gamma <= 0 {
		cr.Corruptf("inconsistent distvec sections (m=%d, vecs=%d)", c.opts.NumPivots, len(c.vecs))
	}
}

// wordRows is the row store of the two bit-packed codecs, flattened
// n x words.
type wordRows struct {
	words int
	rows  []uint64
}

func (r *wordRows) alloc(n int)        { r.rows = make([]uint64, n*r.words) }
func (r *wordRows) bytes() int64       { return int64(len(r.rows)) * 8 }
func (r *wordRows) row(i int) []uint64 { return r.rows[i*r.words : (i+1)*r.words] }

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

// NewBinFilter samples pivots, computes permutations and binarizes them.
func NewBinFilter[T any](sp space.Space[T], data []T, opts BinFilterOptions) (*ScanFilter[T], error) {
	opts.defaults()
	asked := opts.NumPivots
	pv, err := samplePivots(sp, data, &opts.NumPivots, opts.Seed)
	if err != nil {
		return nil, err
	}
	if opts.NumPivots < asked && opts.Threshold >= opts.NumPivots {
		opts.Threshold = opts.NumPivots / 2
	}
	return newScanFilter(sp, data, pv, &binRows{opts: opts, wordRows: wordRows{words: permutation.BinaryWords(opts.NumPivots)}}), nil
}

// binRows stores bit-packed binarized permutations.
type binRows struct {
	opts BinFilterOptions
	wordRows
}

func (c *binRows) tag() string    { return codec.KindBinFilter }
func (c *binRows) gamma() float64 { return c.opts.Gamma }

func (c *binRows) put(i int, view *permutation.Scratch) {
	permutation.Binarize(view.Ranks(), int32(c.opts.Threshold), c.row(i))
}

func (c *binRows) scan(s *scanScratch, out []topk.Neighbor) {
	q := permutation.Binarize(s.view.Ranks(), int32(c.opts.Threshold), s.words)
	s.words = q
	w, rows := c.words, c.rows
	for i := range out {
		out[i] = topk.Neighbor{ID: uint32(i), Dist: float64(permutation.Hamming(q, rows[i*w:(i+1)*w]))}
	}
}

func (c *binRows) save(cw *codec.Writer) {
	cw.Int(c.opts.NumPivots)
	cw.Int(c.opts.Threshold)
	cw.F64(c.opts.Gamma)
	cw.I64(c.opts.Seed)
	cw.Int(c.words)
	cw.U64s(c.rows)
}

func (c *binRows) load(cr *codec.Reader, m, n int) {
	c.opts.NumPivots = cr.Int()
	c.opts.Threshold = cr.Int()
	c.opts.Gamma = cr.F64()
	c.opts.Seed = cr.I64()
	c.words = cr.Int()
	c.rows = cr.U64s()
	if c.opts.NumPivots != m || c.words != permutation.BinaryWords(m) || len(c.rows) != n*c.words || c.opts.Gamma <= 0 {
		cr.Corruptf("inconsistent bin-filter sections (m=%d, words=%d, bits=%d)", c.opts.NumPivots, c.words, len(c.rows))
	}
}

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

// NewQuantFilter samples pivots, computes permutations and quantizes their
// prefixes.
func NewQuantFilter[T any](sp space.Space[T], data []T, opts QuantFilterOptions) (*ScanFilter[T], error) {
	opts.defaults()
	pv, err := samplePivots(sp, data, &opts.NumPivots, opts.Seed)
	if err != nil {
		return nil, err
	}
	opts.PrefixLen = min(opts.PrefixLen, opts.NumPivots)
	return newScanFilter(sp, data, pv, &quantRows{opts: opts, wordRows: wordRows{words: permutation.QuantizedWords(opts.PrefixLen)}}), nil
}

// quantRows stores nibble-packed quantized permutation prefixes.
type quantRows struct {
	opts QuantFilterOptions
	wordRows
}

func (c *quantRows) tag() string    { return codec.KindQuantFilter }
func (c *quantRows) gamma() float64 { return c.opts.Gamma }

func (c *quantRows) put(i int, view *permutation.Scratch) {
	permutation.Quantize(view.Ranks(), c.opts.PrefixLen, c.row(i))
}

func (c *quantRows) scan(s *scanScratch, out []topk.Neighbor) {
	q := permutation.Quantize(s.view.Ranks(), c.opts.PrefixLen, s.words)
	s.words = q
	w, rows := c.words, c.rows
	if w == 1 {
		// The default signature is a single word; keeping the word kernel
		// inlined in this flat loop is what puts the quantized scan ahead
		// of the binary one.
		q0 := q[0]
		for i := range out {
			out[i] = topk.Neighbor{ID: uint32(i), Dist: float64(vecmath.NibbleL1Word(q0, rows[i]))}
		}
		return
	}
	for i := range out {
		out[i] = topk.Neighbor{ID: uint32(i), Dist: float64(vecmath.NibbleL1(q, rows[i*w:(i+1)*w]))}
	}
}

func (c *quantRows) save(cw *codec.Writer) {
	cw.Int(c.opts.NumPivots)
	cw.Int(c.opts.PrefixLen)
	cw.F64(c.opts.Gamma)
	cw.I64(c.opts.Seed)
	cw.Int(c.words)
	cw.U64s(c.rows)
}

func (c *quantRows) load(cr *codec.Reader, m, n int) {
	c.opts.NumPivots = cr.Int()
	c.opts.PrefixLen = cr.Int()
	c.opts.Gamma = cr.F64()
	c.opts.Seed = cr.I64()
	c.words = cr.Int()
	c.rows = cr.U64s()
	if c.opts.NumPivots != m || c.opts.PrefixLen <= 0 || c.opts.PrefixLen > m ||
		c.words != permutation.QuantizedWords(c.opts.PrefixLen) || len(c.rows) != n*c.words || c.opts.Gamma <= 0 {
		cr.Corruptf("inconsistent quant-filter sections (m=%d, prefix=%d, words=%d, sigs=%d)",
			c.opts.NumPivots, c.opts.PrefixLen, c.words, len(c.rows))
	}
}
