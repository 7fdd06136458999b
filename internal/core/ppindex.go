package core

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/permutation"
	"repro/internal/scratch"
	"repro/internal/space"
	"repro/internal/topk"
)

// PPIndexOptions configures NewPPIndex.
type PPIndexOptions struct {
	// NumPivots is the pivot count per tree (the alphabet size of the
	// prefix strings). Default 64.
	NumPivots int
	// PrefixLen is the indexed prefix length l: each point is stored
	// under the sequence of its PrefixLen closest pivots. Default 6.
	PrefixLen int
	// Copies is the number of independent PP-index trees, each with its
	// own pivot sample. The paper notes a good recall/efficiency
	// trade-off typically requires several copies (§2.3). Default 4.
	Copies int
	// Gamma is the minimum candidate fraction gathered per tree before
	// the prefix search stops shortening prefixes. Default 0.01.
	Gamma float64
	// Seed drives pivot sampling.
	Seed int64
}

func (o *PPIndexOptions) defaults() {
	if o.NumPivots <= 0 {
		o.NumPivots = 64
	}
	if o.PrefixLen <= 0 {
		o.PrefixLen = 6
	}
	if o.PrefixLen > o.NumPivots {
		o.PrefixLen = o.NumPivots
	}
	if o.Copies <= 0 {
		o.Copies = 4
	}
	if o.Gamma <= 0 {
		o.Gamma = 0.01
	}
}

// ppNode is a node of one prefix tree. Children are keyed by pivot index.
// count is the number of data points stored in the subtree; items is only
// populated at depth PrefixLen.
type ppNode struct {
	children map[int32]*ppNode
	count    int
	items    []uint32
}

func (n *ppNode) child(p int32, create bool) *ppNode {
	if n.children == nil {
		if !create {
			return nil
		}
		n.children = make(map[int32]*ppNode)
	}
	c := n.children[p]
	if c == nil && create {
		c = &ppNode{}
		n.children[p] = c
	}
	return c
}

// collect appends every item in the subtree to dst.
func (n *ppNode) collect(dst []uint32) []uint32 {
	dst = append(dst, n.items...)
	for _, c := range n.children {
		dst = c.collect(dst)
	}
	return dst
}

// ppTree is one PP-index copy: a pivot sample plus the prefix tree built
// from the permutation prefixes of all data points.
type ppTree[T any] struct {
	pivots *permutation.Pivots[T]
	root   *ppNode
	nodes  int
}

// PPIndex is Esuli's Permutation Prefix Index (§2.3): permutations are
// treated as strings over the pivot alphabet and indexed by their prefixes
// in a trie. A query descends along its own permutation prefix; if the
// subtree under the deepest matching node holds fewer than gamma*n
// candidates, the prefix is shortened (the paper's recursive fallback).
// Multiple tree copies with independent pivot samples are unioned.
type PPIndex[T any] struct {
	sp    space.Space[T]
	data  []T
	trees []ppTree[T]
	opts  PPIndexOptions
	index.Pooled[T, ppScratch]
}

// ppScratch is the per-query state of one PP-index search. seen is an
// epoch-stamped arena standing in for the former per-query map dedup across
// tree copies (first increment == first sighting).
type ppScratch struct {
	perm  permutation.Scratch
	seen  scratch.Counters
	path  []*ppNode
	sub   []uint32
	ids   []uint32
	queue topk.Queue
}

// NewPPIndex builds Copies prefix trees over independent pivot samples.
func NewPPIndex[T any](sp space.Space[T], data []T, opts PPIndexOptions) (*PPIndex[T], error) {
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
	idx := &PPIndex[T]{sp: sp, data: data, opts: opts}
	idx.Bind(idx.search)
	r := rand.New(rand.NewSource(opts.Seed))
	for c := 0; c < opts.Copies; c++ {
		pv, err := permutation.Sample(r, sp, data, opts.NumPivots)
		if err != nil {
			return nil, fmt.Errorf("core: sampling pivots for copy %d: %w", c, err)
		}
		orders := computeOrders(pv, data, opts.PrefixLen)
		tree := ppTree[T]{pivots: pv, root: &ppNode{}}
		l := opts.PrefixLen
		for i := 0; i < len(data); i++ {
			node := tree.root
			node.count++
			for _, p := range orders[i*l : (i+1)*l] {
				node = node.child(p, true)
				node.count++
			}
			node.items = append(node.items, uint32(i))
		}
		idx.trees = append(idx.trees, tree)
	}
	return idx, nil
}

// Name implements index.Index.
func (pp *PPIndex[T]) Name() string { return "pp-index" }

// Stats implements index.Sized.
func (pp *PPIndex[T]) Stats() index.Stats {
	var bytes int64
	var walk func(n *ppNode)
	walk = func(n *ppNode) {
		bytes += 48 + int64(len(n.items))*4 + int64(len(n.children))*16
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, t := range pp.trees {
		walk(t.root)
	}
	return index.Stats{
		Bytes:          bytes,
		BuildDistances: int64(len(pp.data)) * int64(pp.opts.NumPivots) * int64(pp.opts.Copies),
	}
}

// search is the index's one query path, run on pooled scratch by the
// embedded index.Pooled.
func (pp *PPIndex[T]) search(s *ppScratch, dst []topk.Neighbor, query T, opts index.Options) []topk.Neighbor {
	k, tr := opts.K, opts.Trace
	if k <= 0 {
		return dst
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	g := gammaCount(pp.opts.Gamma, len(pp.data), k)
	s.seen.Begin(len(pp.data))
	ids := s.ids[:0]
	for ti := range pp.trees {
		tree := &pp.trees[ti]
		prefix := tree.pivots.ClosestWith(&s.perm, query, pp.opts.PrefixLen)
		// Walk down recording the path, then pick the deepest node
		// whose subtree is big enough.
		s.path = append(s.path[:0], tree.root)
		node := tree.root
		for _, p := range prefix {
			node = node.child(p, false)
			if node == nil {
				break
			}
			s.path = append(s.path, node)
		}
		pick := s.path[0]
		for i := len(s.path) - 1; i >= 0; i-- {
			if s.path[i].count >= g {
				pick = s.path[i]
				break
			}
		}
		s.sub = pick.collect(s.sub[:0])
		for _, id := range s.sub {
			if s.seen.Inc(id) == 1 {
				ids = append(ids, id)
			}
		}
	}
	s.ids = ids
	if tr != nil {
		tr.FilterCandidates += int64(len(ids))
		obs.AddSince(&tr.FilterNs, t0)
		t0 = time.Now()
	}
	// collect walks child maps, so the candidate order above is not
	// deterministic; sort before refining so ties at the k boundary are
	// always broken the same way (smallest id wins, matching topk.ByDist).
	slices.Sort(ids)
	if tr != nil {
		obs.AddSince(&tr.MergeNs, t0)
	}
	return refineInto(pp.sp, pp.data, query, ids, k, &s.queue, dst, tr)
}
