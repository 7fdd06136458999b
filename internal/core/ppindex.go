package core

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/permutation"
	"repro/internal/scratch"
	"repro/internal/space"
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
	data  []T
	trees []ppTree[T]
	opts  PPIndexOptions
	pipeline[T, ppScratch]
}

// ppScratch is the per-query state of one PP-index search. seen is an
// epoch-stamped arena standing in for the former per-query map dedup across
// tree copies (first increment == first sighting).
type ppScratch struct {
	perm permutation.Scratch
	seen scratch.Counters
	path []*ppNode
	sub  []uint32
	ids  []uint32
}

// NewPPIndex builds Copies prefix trees over independent pivot samples.
func NewPPIndex[T any](sp space.Space[T], data []T, opts PPIndexOptions) (*PPIndex[T], error) {
	opts.defaults()
	r, err := seeded(data, &opts.NumPivots, opts.Seed)
	if err != nil {
		return nil, err
	}
	opts.PrefixLen = min(opts.PrefixLen, opts.NumPivots)
	idx := &PPIndex[T]{data: data, opts: opts}
	idx.bind(idx, sp, idx.data, opts.Gamma)
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

func (pp *PPIndex[T]) size() (int64, int) {
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
	return bytes, pp.opts.NumPivots * pp.opts.Copies
}

// filter unions, over the tree copies, the subtree under the deepest node on
// the query's prefix path that holds at least g points. collect walks child
// maps, so the candidate order differs from run to run; refinement does not
// depend on it.
func (pp *PPIndex[T]) filter(s *ppScratch, query T, g int, _ index.Params) (candidates, int, int) {
	s.seen.Begin(len(pp.data))
	ids := s.ids[:0]
	pivots := 0
	for ti := range pp.trees {
		tree := &pp.trees[ti]
		prefix := tree.pivots.ClosestWith(&s.perm, query, pp.opts.PrefixLen)
		pivots += s.perm.Measured
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
	return candidates{ids: ids}, len(ids), pivots
}
