// Package knngraph implements proximity-graph based retrieval, the
// strongest baseline of the paper's evaluation (§3.2): data points are graph
// nodes connected to (approximately) their k nearest neighbors, and search
// greedily walks edges toward the query ("the closest neighbor of my closest
// neighbor is my neighbor as well").
//
// Two approximate graph-construction algorithms are provided, matching the
// paper: search-based insertion as in Malkov et al.'s Small World graphs
// (NewSW), and the iterative NN-descent of Dong et al. (NewNNDescent). Both
// yield a Graph searched with the same multi-restart best-first algorithm,
// which SW insertion runs too.
//
// Building is a pure function of (data, Options): both builders run their
// distance work in parallel on every core but apply its results in node
// order at barriers the data size alone places, so the graph, its saved
// bytes and its build-distance count are the same at any GOMAXPROCS.
//
// Search is a pure function of (graph, query, index.Options): it reads the
// graph and writes only its own pooled scratch, so asking the same query
// twice answers the same, a batch may run in any order, replicas loaded from
// one file are interchangeable, and Save does not depend on the queries
// answered. The random restarts of the algorithm are derandomized per query:
// the traversal measures the query against one fixed node, and the bit
// pattern of that distance — which differs from query to query — mixed with
// the build seed seeds the generator the entry points are drawn from.
package knngraph

import (
	"cmp"
	"math"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
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
	// buildDist counts construction-time distance computations.
	buildDist atomic.Int64
	// Pooled runs search on pooled per-query traversal state (visited
	// arena, frontier, result queue) so a warm query allocates nothing.
	index.Pooled[T, graphScratch]
}

// graphScratch is the per-query state of one graph traversal. The visited
// set is an epoch-stamped arena — starting a query is O(1), not the O(N)
// make([]bool, n) the traversal used to pay. fresh and dists hold one
// expanded node's unvisited neighbours and their distances, measured on sp.
type graphScratch struct {
	visited  scratch.Marks
	frontier topk.MinQueue
	results  topk.Queue
	drain    []topk.Neighbor
	fresh    []uint32
	dists    []float64
	sp       space.Scratch
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

// search implements the index's one query path using multi-restart
// best-first traversal: every restart starts from a pseudo-random entry
// point, maintains a frontier of unexpanded candidates and a bounded result
// set of size ef, and stops when the nearest frontier candidate cannot
// improve the result set; the top k of the result set are appended to dst.
// The restart count and frontier size are the query's (opts.Params) when
// set, else the graph's build-time ones.
func (g *Graph[T]) search(s *graphScratch, dst []topk.Neighbor, query T, opts index.Options) []topk.Neighbor {
	k, tr := opts.K, opts.Trace
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	// The probe node whose distance seeds the entry points (see the package
	// doc) is the last one: no later SW insertion linked to it, so keeping
	// it as a visited result but out of the frontier costs no navigability.
	n := len(g.adj)
	s.begin(n, max(cmp.Or(opts.Params.EfSearch, g.opts.EfSearch), k, g.opts.NN))
	probe := uint32(n - 1)
	s.visited.TrySet(probe)
	d := g.sp.Distance(g.data[probe], query)
	s.results.Push(probe, d)
	evals := 1 + g.traverse(s, query, cmp.Or(opts.Params.InitAttempts, g.opts.InitAttempts), n, math.Float64bits(d))
	s.drain = s.results.AppendResults(s.drain[:0])
	res := s.drain
	if len(res) > k {
		res = res[:k]
	}
	if tr != nil {
		tr.RefineDistances += int64(evals)
		obs.AddSince(&tr.RefineNs, t0)
	}
	return append(dst, res...)
}

// begin readies s for one traversal over n nodes with a result set of ef.
func (s *graphScratch) begin(n, ef int) {
	s.visited.Begin(n)
	s.results.Reset(ef)
	s.frontier.Reset()
}

// traverse runs the restart loop over scratch readied by begin, leaving the
// result set in s.results, and returns the number of distances it evaluated.
// It serves queries and SW insertion alike: entry points are drawn below
// limit from a generator seeded by (build seed, stream), and the walk stays
// below limit because no node there links to one at or above it. Expanding a
// node measures its unvisited neighbours in one space.Many call, then offers
// them to the result set in adjacency order; an entry point is measured on
// its own.
func (g *Graph[T]) traverse(s *graphScratch, query T, attempts, limit int, stream uint64) (evals int) {
	var entries rand.PCG
	entries.Seed(uint64(g.opts.Seed), stream)
	for a := 0; a < attempts; a++ {
		entry := uint32(entries.Uint64() % uint64(limit))
		if s.visited.TrySet(entry) {
			d := g.sp.Distance(g.data[entry], query)
			evals++
			s.results.Push(entry, d)
			s.frontier.Push(entry, d)
		}
		for s.frontier.Len() > 0 {
			cur := s.frontier.Pop()
			if bound, ok := s.results.Bound(); ok && cur.Dist > bound {
				break
			}
			s.fresh = s.fresh[:0]
			for _, nb := range g.adj[cur.ID] {
				if s.visited.TrySet(nb) {
					s.fresh = append(s.fresh, nb)
				}
			}
			s.dists = scratch.Grow(s.dists, len(s.fresh))
			space.Many(g.sp, &s.sp, s.dists, query, g.data, s.fresh)
			evals += len(s.fresh)
			for i, nb := range s.fresh {
				if d := s.dists[i]; s.results.WouldAccept(d) {
					s.results.Push(nb, d)
					s.frontier.Push(nb, d)
				}
			}
		}
		s.frontier.Reset()
	}
	return evals
}
