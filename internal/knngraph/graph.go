// Package knngraph implements proximity-graph based retrieval, the
// strongest baseline of the paper's evaluation (§3.2): data points are graph
// nodes connected to (approximately) their k nearest neighbors, and search
// greedily walks edges toward the query ("the closest neighbor of my closest
// neighbor is my neighbor as well").
//
// Two approximate graph-construction algorithms are provided, matching the
// paper: search-based insertion as in Malkov et al.'s Small World graphs
// (NewSW), and the iterative NN-descent of Dong et al. (NewNNDescent). Both
// yield a Graph searched with the same multi-restart best-first algorithm.
package knngraph

import (
	"cmp"
	"math/rand"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/scratch"
	"repro/internal/space"
	"repro/internal/topk"
)

// Options configures graph construction and search.
type Options struct {
	// NN is the number of neighbors requested per node at construction
	// time (graph degree; SW links are bidirectional so effective degree
	// is larger). Default 10.
	NN int
	// InitAttempts is the number of random restarts of the greedy
	// search, both during SW insertion and at query time. More attempts
	// = higher recall, more distance computations. Default 2.
	InitAttempts int
	// EfSearch is the result-frontier size of the query-time search;
	// values above k improve recall. 0 means max(k, NN).
	EfSearch int
	// Rho is NN-descent's sample rate (fraction of NN sampled per
	// round). Default 0.5.
	Rho float64
	// Delta is NN-descent's convergence threshold: iteration stops when
	// fewer than Delta*NN*n heap updates happen in a round. Default
	// 0.001.
	Delta float64
	// MaxIters caps NN-descent rounds. Default 12.
	MaxIters int
	// RandomLinks is the number of extra random bidirectional edges per
	// node added to an NN-descent graph. A pure k-NN graph over
	// clustered data is not navigable (greedy search cannot leave the
	// entry point's cluster); SW graphs get long-range links for free
	// from early insertions, NN-descent graphs need explicit rewiring.
	// -1 disables; 0 means the default of 2.
	RandomLinks int
	// Workers bounds construction parallelism. 0 means GOMAXPROCS; the
	// paper builds graphs with four threads. SW construction is only
	// deterministic with Workers = 1.
	Workers int
	// Seed drives random choices (entry points, initial neighbors).
	Seed int64
}

func (o *Options) defaults() {
	if o.NN <= 0 {
		o.NN = 10
	}
	if o.InitAttempts <= 0 {
		o.InitAttempts = 2
	}
	if o.Rho <= 0 || o.Rho > 1 {
		o.Rho = 0.5
	}
	if o.Delta <= 0 {
		o.Delta = 0.001
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 12
	}
	if o.RandomLinks == 0 {
		o.RandomLinks = 2
	} else if o.RandomLinks < 0 {
		o.RandomLinks = 0
	}
}

// Graph is a k-NN proximity graph over a fixed data set.
type Graph[T any] struct {
	sp   space.Space[T]
	data []T
	adj  [][]uint32
	opts Options
	name string
	// seedCtr makes entry-point choices deterministic for a fixed
	// sequence of Search calls while keeping Search concurrency-safe.
	seedCtr atomic.Int64
	// buildDist counts construction-time distance computations.
	buildDist atomic.Int64
	// Pooled runs search on pooled per-query traversal state (visited
	// arena, frontier, result queue, entry-point RNG) so a warm query
	// allocates nothing.
	index.Pooled[T, graphScratch]
}

// graphScratch is the per-query state of one graph traversal. The visited
// set is an epoch-stamped arena — starting a query is O(1), not the O(N)
// make([]bool, n) the traversal used to pay — and the RNG is reseeded in
// place, producing the exact stream a fresh rand.New over the same seed
// would.
type graphScratch struct {
	visited  scratch.Marks
	frontier topk.MinQueue
	results  topk.Queue
	drain    []topk.Neighbor
	r        *rand.Rand
}

// Name implements index.Index: "sw-graph" or "nndescent-graph".
func (g *Graph[T]) Name() string { return g.name }

// Stats implements index.Sized.
func (g *Graph[T]) Stats() index.Stats {
	var edges int64
	for _, a := range g.adj {
		edges += int64(len(a))
	}
	return index.Stats{
		Bytes:          edges*4 + int64(len(g.adj))*24,
		BuildDistances: g.buildDist.Load(),
	}
}

// Degree returns the out-degree of node id (for tests and reports).
func (g *Graph[T]) Degree(id int) int { return len(g.adj[id]) }

// search implements the index's one query path using multi-restart
// best-first traversal: every restart starts from a random entry point,
// maintains a frontier of unexpanded candidates and a bounded result set of
// size ef, and stops when the nearest frontier candidate cannot improve the
// result set. The entry-point RNG is seeded from the next value of the
// shared seed counter, so two calls on the same query legitimately answer
// differently while a fixed call sequence is deterministic.
func (g *Graph[T]) search(s *graphScratch, dst []topk.Neighbor, query T, opts index.Options) []topk.Neighbor {
	if opts.K <= 0 {
		return dst
	}
	return g.searchSeeded(s, dst, query, opts, g.seedCtr.Add(1))
}

// SearchBatch implements index.Batcher: it answers the batch concurrently
// yet byte-identical to a serial SearchAppend loop. Entry points are drawn
// from the shared seedCtr, so a naive concurrent fan-out would hand each
// query whichever counter value its goroutine happened to draw; here the
// whole counter range is reserved up front and query i is pinned to the
// value the i-th serial call would have consumed.
func (g *Graph[T]) SearchBatch(queries []T, opts index.Options, workers int) [][]topk.Neighbor {
	out := make([][]topk.Neighbor, len(queries))
	if opts.K <= 0 {
		// A serial loop would return nil per query without consuming
		// any counter values; match that.
		return out
	}
	base := g.seedCtr.Add(int64(len(queries))) - int64(len(queries))
	engine.NewPool(workers).ForDynamic(len(queries), func(i int) {
		s := g.Scratch.Get()
		defer g.Scratch.Put(s)
		out[i] = g.searchSeeded(s, nil, queries[i], opts, base+int64(i)+1)
	})
	return out
}

// searchSeeded runs one query with the entry-point RNG derived from ctr (a
// seedCtr value), appending the top k of the ef-sized result set to dst.
// The restart count and frontier size are the query's (opts.Params) when
// set, else the graph's build-time ones.
func (g *Graph[T]) searchSeeded(s *graphScratch, dst []topk.Neighbor, query T, opts index.Options, ctr int64) []topk.Neighbor {
	k := opts.K
	ef := max(cmp.Or(opts.Params.EfSearch, g.opts.EfSearch), k, g.opts.NN)
	seed := g.opts.Seed ^ ctr
	if s.r == nil {
		s.r = rand.New(rand.NewSource(seed))
	} else {
		// Seeding in place restarts the source and discards buffered
		// state, so the stream is identical to a fresh rand.New.
		s.r.Seed(seed)
	}
	g.traverse(s, query, ef, cmp.Or(opts.Params.InitAttempts, g.opts.InitAttempts))
	s.drain = s.results.AppendResults(s.drain[:0])
	res := s.drain
	if len(res) > k {
		res = res[:k]
	}
	return append(dst, res...)
}

// traverse runs the restart loop over pooled scratch, leaving the result
// set in s.results. The mark-then-evaluate order is exactly the one the
// per-query-allocating version used, so answers are unchanged.
func (g *Graph[T]) traverse(s *graphScratch, query T, ef, attempts int) {
	n := len(g.adj)
	s.visited.Begin(n)
	s.results.Reset(ef)
	s.frontier.Reset()

	for a := 0; a < attempts; a++ {
		entry := uint32(s.r.Intn(n))
		if s.visited.TrySet(entry) {
			d := g.sp.Distance(g.data[entry], query)
			s.results.Push(entry, d)
			s.frontier.Push(entry, d)
		}
		for s.frontier.Len() > 0 {
			cur := s.frontier.Pop()
			if bound, ok := s.results.Bound(); ok && cur.Dist > bound {
				break
			}
			for _, nb := range g.adj[cur.ID] {
				if !s.visited.TrySet(nb) {
					continue
				}
				d := g.sp.Distance(g.data[nb], query)
				if s.results.WouldAccept(d) {
					s.results.Push(nb, d)
					s.frontier.Push(nb, d)
				}
			}
		}
		s.frontier.Reset()
	}
}
