// Package lsh implements multi-probe locality-sensitive hashing for the
// Euclidean distance (Lv et al. 2007, with the LSHKit-style setup used as
// the MPLSH baseline in §3.2 of the paper). It applies only to dense
// vectors under L2 — exactly the restriction the paper notes.
//
// Each of L hash tables concatenates M random-projection quantizers
//
//	h(v) = floor((a.v + b) / W)
//
// into a bucket key. At query time, in addition to the query's own bucket,
// the T statistically most promising perturbed buckets are probed per table
// (query-directed probing): perturbation sets are generated in increasing
// order of their expected score with the heap algorithm of Lv et al.
package lsh

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/scratch"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// Options configures New.
type Options struct {
	// Tables is L, the number of hash tables. Default 16.
	Tables int
	// Hashes is M, the number of concatenated hash functions per table.
	// Default 12.
	Hashes int
	// Probes is T, the number of additional buckets probed per table.
	// The paper found T = 10 near-optimal. Default 10.
	Probes int
	// Width is the quantization width W. 0 lets New estimate it from a
	// sample of pairwise distances (W = mean distance / 2), following
	// the self-tuning spirit of Dong et al.'s model.
	Width float64
	// Seed drives hash function sampling.
	Seed int64
}

func (o *Options) defaults() {
	if o.Tables <= 0 {
		o.Tables = 16
	}
	if o.Hashes <= 0 {
		o.Hashes = 12
	}
	if o.Probes < 0 {
		o.Probes = 0
	} else if o.Probes == 0 {
		o.Probes = 10
	}
}

// table is one hash table: M projection directions and offsets plus the
// bucket map.
type table struct {
	a       [][]float32 // M x dim projection vectors
	b       []float64   // M offsets in [0, W)
	buckets map[uint64][]uint32
}

// MPLSH is a multi-probe LSH index over dense vectors with L2.
type MPLSH struct {
	data   [][]float32
	dim    int
	w      float64
	tables []table
	opts   Options
	// Pooled runs search on pooled per-query state (dedup marks,
	// candidates, probe-set heap, refine scratch), so a warm query allocates
	// nothing.
	index.Pooled[[]float32, searchScratch]
}

// New builds the index. All vectors must share the same dimensionality.
func New(data [][]float32, opts Options) (*MPLSH, error) {
	opts.defaults()
	if len(data) == 0 {
		return nil, fmt.Errorf("lsh: empty data set")
	}
	dim := len(data[0])
	if dim == 0 {
		return nil, fmt.Errorf("lsh: zero-dimensional vectors")
	}
	for i, v := range data {
		if len(v) != dim {
			return nil, fmt.Errorf("lsh: vector %d has dim %d, want %d", i, len(v), dim)
		}
	}
	r := rand.New(rand.NewSource(opts.Seed))
	w := opts.Width
	if w <= 0 {
		w = estimateWidth(r, data)
	}
	idx := &MPLSH{data: data, dim: dim, w: w, opts: opts}
	idx.Bind(idx.search)
	idx.tables = make([]table, opts.Tables)
	for t := range idx.tables {
		tb := table{
			a:       make([][]float32, opts.Hashes),
			b:       make([]float64, opts.Hashes),
			buckets: make(map[uint64][]uint32),
		}
		for h := 0; h < opts.Hashes; h++ {
			v := make([]float32, dim)
			for d := range v {
				v[d] = float32(r.NormFloat64())
			}
			tb.a[h] = v
			tb.b[h] = r.Float64() * w
		}
		idx.tables[t] = tb
	}
	// Insert all points.
	keys := make([]int32, opts.Hashes)
	for id, v := range data {
		for t := range idx.tables {
			idx.hashInto(&idx.tables[t], v, keys, nil)
			k := bucketKey(keys)
			idx.tables[t].buckets[k] = append(idx.tables[t].buckets[k], uint32(id))
		}
	}
	return idx, nil
}

// estimateWidth samples pairwise distances and returns mean/2.
func estimateWidth(r *rand.Rand, data [][]float32) float64 {
	const pairs = 200
	var sum float64
	var n int
	for i := 0; i < pairs; i++ {
		a := data[r.Intn(len(data))]
		b := data[r.Intn(len(data))]
		if d := vecmath.L2(a, b); d > 0 {
			sum += d
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n) / 2
}

// hashInto computes the M bucket coordinates of v for table tb. When fracs
// is non-nil it also records, per hash, the distance from the projection to
// the lower quantization boundary, needed for query-directed probing.
func (x *MPLSH) hashInto(tb *table, v []float32, keys []int32, fracs []float64) {
	for h := range tb.a {
		f := (vecmath.Dot(tb.a[h], v) + tb.b[h]) / x.w
		fl := math.Floor(f)
		keys[h] = int32(fl)
		if fracs != nil {
			fracs[h] = f - fl // in [0, 1): distance to lower boundary / W
		}
	}
}

// bucketKey mixes the M coordinates into a 64-bit map key (FNV-1a).
func bucketKey(keys []int32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, k := range keys {
		u := uint32(k)
		for s := 0; s < 32; s += 8 {
			h ^= uint64((u >> s) & 0xff)
			h *= prime64
		}
	}
	return h
}

// Name implements index.Index.
func (x *MPLSH) Name() string { return "mplsh" }

// Stats implements index.Sized.
func (x *MPLSH) Stats() index.Stats {
	var bytes int64
	for _, tb := range x.tables {
		bytes += int64(x.opts.Hashes) * int64(x.dim) * 4
		for _, b := range tb.buckets {
			bytes += 8 + int64(len(b))*4
		}
	}
	return index.Stats{Bytes: bytes}
}

// perturbation is one element of a perturbation set: hash position i and
// direction delta (+1 or -1), with its score (squared boundary distance).
type perturbation struct {
	i     int
	delta int32
	score float64
}

// searchScratch is the reusable per-query state: the hash coordinates of the
// query and of one perturbed bucket, the boundary fractions, the distinct
// candidates in probe order with their dedup marks, the perturbation-set
// enumeration's heap and arenas, and the refine's scratch. The zero value is
// ready; a warm scratch makes a query allocation-free.
type searchScratch struct {
	keys, pkeys []int32
	fracs       []float64
	seen        scratch.Marks
	ids         []uint32
	sp          space.Scratch

	perts   []perturbation // the 2M single perturbations, by score
	heap    topk.MinQueue  // candidate sets by score; ID indexes sets
	sets    []span         // candidate sets, runs of members
	members []int          // indices into perts
	chosen  []span         // the sets probeSets returns
}

// span is one run [off, off+n) of an arena.
type span struct{ off, n int }

// search is the index's one query path: probe own + T perturbed buckets per
// table, collect the distinct candidates in probe order, and refine them with
// true L2 in one space.Nearest call. T is the query's (opts.Params.Probes,
// negative meaning none) when set, else the build-time one. As in every
// filter-and-refine index, a traced query books the hashing and probing to
// the filter stage and the distinct candidates as FilterCandidates;
// space.Nearest books the refine.
func (x *MPLSH) search(s *searchScratch, dst []topk.Neighbor, query []float32, opts index.Options) []topk.Neighbor {
	tr := opts.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	probes := x.opts.Probes
	if p := opts.Params.Probes; p != 0 {
		probes = max(p, 0)
	}
	m := x.opts.Hashes
	s.keys = scratch.Grow(s.keys, m)
	s.pkeys = scratch.Grow(s.pkeys, m)
	s.fracs = scratch.Grow(s.fracs, m)
	s.seen.Begin(len(x.data))
	s.ids = s.ids[:0]
	probe := func(tb *table, key uint64) {
		for _, id := range tb.buckets[key] {
			if s.seen.TrySet(id) {
				s.ids = append(s.ids, id)
			}
		}
	}
	for t := range x.tables {
		tb := &x.tables[t]
		x.hashInto(tb, query, s.keys, s.fracs)
		probe(tb, bucketKey(s.keys))
		for _, set := range s.probeSets(s.fracs, probes) {
			copy(s.pkeys, s.keys)
			for _, j := range s.members[set.off : set.off+set.n] {
				s.pkeys[s.perts[j].i] += s.perts[j].delta
			}
			probe(tb, bucketKey(s.pkeys))
		}
	}
	if tr != nil {
		tr.FilterCandidates += int64(len(s.ids))
		obs.AddSince(&tr.FilterNs, t0)
	}
	return space.Nearest(space.L2{}, &s.sp, dst, query, x.data, nil, s.ids, opts.K, tr)
}

// probeSets generates the t lowest-score perturbation sets for the query
// whose boundary fractions are fracs, using the shift/expand heap enumeration
// of Lv et al. A set may contain at most one perturbation per hash position.
// Each set returned is a run of s.members, indices into s.perts, valid until
// the next call.
func (s *searchScratch) probeSets(fracs []float64, t int) []span {
	s.chosen = s.chosen[:0]
	if t == 0 {
		return s.chosen
	}
	// 2M candidate perturbations sorted by score. For hash i, moving to
	// the lower bucket (-1) costs frac^2, to the upper (+1) costs
	// (1-frac)^2 (distances normalized by W).
	perts := s.perts[:0]
	for i, f := range fracs {
		perts = append(perts,
			perturbation{i: i, delta: -1, score: f * f},
			perturbation{i: i, delta: +1, score: (1 - f) * (1 - f)},
		)
	}
	slices.SortFunc(perts, func(a, b perturbation) int { return cmp.Compare(a.score, b.score) })
	s.perts = perts

	// valid reports whether no two members perturb the same hash; members
	// are few, so a pairwise check is the cheapest.
	valid := func(members []int) bool {
		for a, ja := range members {
			for _, jb := range members[a+1:] {
				if perts[ja].i == perts[jb].i {
					return false
				}
			}
		}
		return true
	}
	// push adds the set with members cur[:keep] plus next to the heap.
	push := func(cur span, keep, next int) {
		off := len(s.members)
		s.members = append(s.members, s.members[cur.off:cur.off+keep]...)
		s.members = append(s.members, next)
		var score float64
		for _, j := range s.members[off:] {
			score += perts[j].score
		}
		s.heap.Push(uint32(len(s.sets)), score)
		s.sets = append(s.sets, span{off, keep + 1})
	}

	s.heap.Reset()
	s.sets, s.members = s.sets[:0], s.members[:0]
	push(span{}, 0, 0)
	for len(s.chosen) < t && s.heap.Len() > 0 {
		cur := s.sets[s.heap.Pop().ID]
		members := s.members[cur.off : cur.off+cur.n]
		if valid(members) {
			s.chosen = append(s.chosen, cur)
		}
		// Shift: advance the largest member by one. Expand: add the
		// next perturbation after the largest member.
		if last := members[cur.n-1]; last+1 < len(perts) {
			push(cur, cur.n-1, last+1)
			push(cur, cur.n, last+1)
		}
	}
	return s.chosen
}
