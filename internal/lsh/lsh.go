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
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
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
	// MPLSH keeps no reusable per-query state (a query allocates its
	// dedup set and probe sequences), so the pooled scratch is empty.
	index.Pooled[[]float32, struct{}]
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

// probeSet is a candidate perturbation set: indices into the sorted
// perturbation array.
type probeSet struct {
	members []int
	score   float64
}

// search is the index's one query path: probe own + T perturbed buckets per
// table, dedupe candidates, refine with true L2. T is the query's
// (opts.Params.Probes, negative meaning none) when set, else the build-time
// one. Hashing and refining interleave bucket by bucket, so a traced query
// books its whole time, and one distance per distinct candidate, to refine.
func (x *MPLSH) search(_ *struct{}, dst []topk.Neighbor, query []float32, opts index.Options) []topk.Neighbor {
	k, tr := opts.K, opts.Trace
	if k <= 0 {
		return dst
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	probes := x.opts.Probes
	if p := opts.Params.Probes; p != 0 {
		probes = max(p, 0)
	}
	seen := make(map[uint32]struct{})
	res := topk.NewQueue(k)
	keys := make([]int32, x.opts.Hashes)
	fracs := make([]float64, x.opts.Hashes)
	probe := func(tb *table, key uint64) {
		for _, id := range tb.buckets[key] {
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			res.Push(id, vecmath.L2(x.data[id], query))
		}
	}
	pkeys := make([]int32, x.opts.Hashes)
	for t := range x.tables {
		tb := &x.tables[t]
		x.hashInto(tb, query, keys, fracs)
		probe(tb, bucketKey(keys))
		for _, set := range x.probeSets(fracs, probes) {
			copy(pkeys, keys)
			for _, p := range set {
				pkeys[p.i] += p.delta
			}
			probe(tb, bucketKey(pkeys))
		}
	}
	if tr != nil {
		tr.RefineDistances += int64(len(seen))
		obs.AddSince(&tr.RefineNs, t0)
	}
	return res.AppendResults(dst)
}

// probeSets generates the t lowest-score perturbation sets for the current
// query, using the shift/expand heap enumeration of Lv et al. A set may
// contain at most one perturbation per hash position.
func (x *MPLSH) probeSets(fracs []float64, t int) [][]perturbation {
	m := x.opts.Hashes
	if t == 0 {
		return nil
	}
	// 2M candidate perturbations sorted by score. For hash i, moving to
	// the lower bucket (-1) costs frac^2, to the upper (+1) costs
	// (1-frac)^2 (distances normalized by W).
	perts := make([]perturbation, 0, 2*m)
	for i := 0; i < m; i++ {
		perts = append(perts,
			perturbation{i: i, delta: -1, score: fracs[i] * fracs[i]},
			perturbation{i: i, delta: +1, score: (1 - fracs[i]) * (1 - fracs[i])},
		)
	}
	sort.Slice(perts, func(a, b int) bool { return perts[a].score < perts[b].score })

	valid := func(members []int) bool {
		used := make(map[int]bool, len(members))
		for _, j := range members {
			if j >= len(perts) {
				return false
			}
			if used[perts[j].i] {
				return false
			}
			used[perts[j].i] = true
		}
		return true
	}
	scoreOf := func(members []int) float64 {
		var s float64
		for _, j := range members {
			s += perts[j].score
		}
		return s
	}

	var heap []probeSet
	push := func(ps probeSet) {
		heap = append(heap, ps)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heap[p].score <= heap[i].score {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() probeSet {
		top := heap[0]
		n := len(heap) - 1
		heap[0] = heap[n]
		heap = heap[:n]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < n && heap[l].score < heap[small].score {
				small = l
			}
			if r < n && heap[r].score < heap[small].score {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}

	push(probeSet{members: []int{0}, score: perts[0].score})
	out := make([][]perturbation, 0, t)
	for len(out) < t && len(heap) > 0 {
		cur := pop()
		if valid(cur.members) {
			set := make([]perturbation, len(cur.members))
			for i, j := range cur.members {
				set[i] = perts[j]
			}
			out = append(out, set)
		}
		// Shift: advance the largest member by one. Expand: add the
		// next perturbation after the largest member.
		last := cur.members[len(cur.members)-1]
		if last+1 < len(perts) {
			shift := append(append([]int(nil), cur.members[:len(cur.members)-1]...), last+1)
			push(probeSet{members: shift, score: scoreOf(shift)})
			expand := append(append([]int(nil), cur.members...), last+1)
			push(probeSet{members: expand, score: scoreOf(expand)})
		}
	}
	return out
}
