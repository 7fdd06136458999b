package knngraph

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/engine"
	"repro/internal/space"
)

// ndEntry is one neighbor-heap entry of NN-descent.
type ndEntry struct {
	id    uint32
	dist  float64
	fresh bool // "new" flag of the paper: not yet joined
}

// ndHeap is a bounded max-heap (by dist) of candidate neighbors, with
// duplicate suppression.
type ndHeap struct {
	entries []ndEntry // max-heap by dist
	cap     int
}

// tryInsert offers (id, dist) and reports whether the heap changed.
func (h *ndHeap) tryInsert(id uint32, dist float64) bool {
	if len(h.entries) == h.cap && dist >= h.entries[0].dist {
		return false
	}
	for _, e := range h.entries {
		if e.id == id {
			return false
		}
	}
	if len(h.entries) < h.cap {
		h.entries = append(h.entries, ndEntry{id: id, dist: dist, fresh: true})
		i := len(h.entries) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h.entries[p].dist >= h.entries[i].dist {
				break
			}
			h.entries[p], h.entries[i] = h.entries[i], h.entries[p]
			i = p
		}
		return true
	}
	h.entries[0] = ndEntry{id: id, dist: dist, fresh: true}
	i, n := 0, len(h.entries)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && h.entries[l].dist > h.entries[big].dist {
			big = l
		}
		if r < n && h.entries[r].dist > h.entries[big].dist {
			big = r
		}
		if big == i {
			break
		}
		h.entries[i], h.entries[big] = h.entries[big], h.entries[i]
		i = big
	}
	return true
}

// ndBlock is how many nodes' local joins are measured between two merges
// into the heaps. It bounds the join buffers; the graph does not depend on
// it, since a round's join pairs are fixed before any merge.
const ndBlock = 1024

// NewNNDescent builds a k-NN graph with the NN-descent algorithm of Dong et
// al. (§3.2): neighbor lists start random and improve iteratively by local
// joins among each point's (sampled) new and old neighbors and reverse
// neighbors, stopping when fewer than Delta*NN*n updates occur in a round.
func NewNNDescent[T any](sp space.Space[T], data []T, opts Options) (*Graph[T], error) {
	opts.defaults()
	if len(data) == 0 {
		return nil, fmt.Errorf("knngraph: empty data set")
	}
	n := len(data)
	g := &Graph[T]{
		sp:   sp,
		data: data,
		adj:  make([][]uint32, n),
		opts: opts,
		name: "nndescent-graph",
	}
	g.Bind(g.search)
	k := opts.NN
	if k >= n {
		k = n - 1
	}
	if k <= 0 {
		// Degenerate one-point data set: empty graph.
		return g, nil
	}

	heaps := make([]ndHeap, n)
	for i := range heaps {
		heaps[i].cap = k
	}
	// Random initialization.
	r := rand.New(rand.NewSource(opts.Seed))
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = r.Int63()
	}
	var pool engine.Pool
	pool.For(n, func(_, v int) {
		rv := rand.New(rand.NewSource(seeds[v]))
		for heaps[v].entries == nil || len(heaps[v].entries) < k {
			u := uint32(rv.Intn(n))
			if int(u) == v {
				continue
			}
			g.buildDist.Add(1)
			heaps[v].tryInsert(u, sp.Distance(data[u], data[v]))
		}
	})

	sampleK := int(opts.Rho * float64(k))
	if sampleK < 1 {
		sampleK = 1
	}
	threshold := int64(opts.Delta * float64(n) * float64(k))
	joins := make([][]ndJoin, ndBlock)
	for iter := 0; iter < opts.MaxIters; iter++ {
		// Collect new (sampled, then unflagged) and old neighbor sets.
		newFwd := make([][]uint32, n)
		oldFwd := make([][]uint32, n)
		for v := range heaps {
			h := &heaps[v]
			var freshIdx []int
			for i, e := range h.entries {
				if e.fresh {
					freshIdx = append(freshIdx, i)
				} else {
					oldFwd[v] = append(oldFwd[v], e.id)
				}
			}
			r.Shuffle(len(freshIdx), func(a, b int) { freshIdx[a], freshIdx[b] = freshIdx[b], freshIdx[a] })
			if len(freshIdx) > sampleK {
				freshIdx = freshIdx[:sampleK]
			}
			for _, i := range freshIdx {
				newFwd[v] = append(newFwd[v], h.entries[i].id)
				h.entries[i].fresh = false
			}
		}
		// Reverse neighbor sets, sampled to sampleK.
		newRev := reverseSample(r, newFwd, n, sampleK)
		oldRev := reverseSample(r, oldFwd, n, sampleK)

		// Local joins: a block's distances are measured in parallel, then
		// offered to the heaps in (node, pair) order at the block barrier.
		var updates int64
		for lo := 0; lo < n; lo += ndBlock {
			hi := min(lo+ndBlock, n)
			pool.For(hi-lo, func(_, j int) {
				v := lo + j
				news := append(append([]uint32(nil), newFwd[v]...), newRev[v]...)
				olds := append(append([]uint32(nil), oldFwd[v]...), oldRev[v]...)
				joins[j] = g.localJoin(joins[j][:0], news, olds)
			})
			for _, js := range joins[:hi-lo] {
				g.buildDist.Add(int64(len(js)))
				for _, p := range js {
					if heaps[p.u1].tryInsert(p.u2, p.dist) {
						updates++
					}
					if heaps[p.u2].tryInsert(p.u1, p.dist) {
						updates++
					}
				}
			}
		}
		if updates <= threshold {
			break
		}
	}

	for v := range heaps {
		es := heaps[v].entries
		sort.Slice(es, func(a, b int) bool {
			if es[a].dist != es[b].dist {
				return es[a].dist < es[b].dist
			}
			return es[a].id < es[b].id
		})
		ids := make([]uint32, len(es))
		for i, e := range es {
			ids[i] = e.id
		}
		g.adj[v] = ids
	}
	// NN-descent produces *directed* k-NN lists. Greedy traversal needs
	// the graph to be navigable in both directions (as in the SW search
	// used by the paper), so symmetrize: add each edge's reverse.
	symmetrize(g.adj)
	// A pure k-NN graph over well-separated clusters is disconnected;
	// unlike SW construction (whose early insertions create long-range
	// links), nothing here guarantees reachability. Bridge the
	// components and add small-world rewiring so greedy search can
	// escape a wrong entry cluster (see Options.RandomLinks).
	connectComponents(g.adj)
	if opts.RandomLinks > 0 {
		addRandomLinks(r, g.adj, opts.RandomLinks)
	}
	return g, nil
}

// addRandomLinks appends `count` random bidirectional long-range edges per
// node, skipping self-loops and existing duplicates.
func addRandomLinks(r *rand.Rand, adj [][]uint32, count int) {
	n := len(adj)
	if n < 3 {
		return
	}
	for v := range adj {
		present := make(map[uint32]bool, len(adj[v])+count)
		for _, u := range adj[v] {
			present[u] = true
		}
		for c := 0; c < count; c++ {
			u := uint32(r.Intn(n))
			if int(u) == v || present[u] {
				continue
			}
			present[u] = true
			adj[v] = append(adj[v], u)
			adj[u] = append(adj[u], uint32(v))
		}
	}
}

// connectComponents finds weakly connected components with a BFS and links
// consecutive components' representative nodes bidirectionally.
func connectComponents(adj [][]uint32) {
	n := len(adj)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var reps []uint32
	var queue []uint32
	for start := 0; start < n; start++ {
		if comp[start] != -1 {
			continue
		}
		c := len(reps)
		reps = append(reps, uint32(start))
		comp[start] = c
		queue = append(queue[:0], uint32(start))
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range adj[v] {
				if comp[u] == -1 {
					comp[u] = c
					queue = append(queue, u)
				}
			}
		}
	}
	for c := 1; c < len(reps); c++ {
		a, b := reps[c-1], reps[c]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
}

// symmetrize adds the reverse of every edge, deduplicating per node.
func symmetrize(adj [][]uint32) {
	rev := make([][]uint32, len(adj))
	for v, list := range adj {
		for _, u := range list {
			rev[u] = append(rev[u], uint32(v))
		}
	}
	for v := range adj {
		present := make(map[uint32]bool, len(adj[v]))
		for _, u := range adj[v] {
			present[u] = true
		}
		for _, u := range rev[v] {
			if !present[u] && int(u) != v {
				present[u] = true
				adj[v] = append(adj[v], u)
			}
		}
	}
}

// ndJoin is one local-join pair and its distance, offered to both nodes'
// heaps.
type ndJoin struct {
	u1, u2 uint32
	dist   float64
}

// localJoin appends one node's local-join pairs — new×new (unordered) and
// new×old — with their distances to dst.
func (g *Graph[T]) localJoin(dst []ndJoin, news, olds []uint32) []ndJoin {
	for i, u1 := range news {
		for _, u2 := range news[i+1:] {
			if u1 != u2 {
				dst = append(dst, ndJoin{u1, u2, g.sp.Distance(g.data[u1], g.data[u2])})
			}
		}
		for _, u2 := range olds {
			if u1 != u2 {
				dst = append(dst, ndJoin{u1, u2, g.sp.Distance(g.data[u1], g.data[u2])})
			}
		}
	}
	return dst
}

// reverseSample builds reverse adjacency of fwd, sampling each list down to
// maxLen with reservoir sampling.
func reverseSample(r *rand.Rand, fwd [][]uint32, n, maxLen int) [][]uint32 {
	rev := make([][]uint32, n)
	counts := make([]int, n)
	for v, list := range fwd {
		for _, u := range list {
			counts[u]++
			if len(rev[u]) < maxLen {
				rev[u] = append(rev[u], uint32(v))
			} else if j := r.Intn(counts[u]); j < maxLen {
				rev[u][j] = uint32(v)
			}
		}
	}
	return rev
}
