package knngraph

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/engine"
	"repro/internal/space"
	"repro/internal/topk"
)

// NewSW builds a proximity graph with the search-based insertion algorithm
// of Malkov et al. (Small World graphs, §3.2 of the paper): points are
// inserted one by one; each insertion searches the partially built graph for
// the new point's NN nearest neighbors (with InitAttempts restarts) and
// links to them bidirectionally. Construction runs on Workers goroutines
// with a reader/writer lock over the adjacency lists, matching the paper's
// four-thread indexing setup.
func NewSW[T any](sp space.Space[T], data []T, opts Options) (*Graph[T], error) {
	opts.defaults()
	if len(data) == 0 {
		return nil, fmt.Errorf("knngraph: empty data set")
	}
	g := &Graph[T]{
		sp:   sp,
		data: data,
		adj:  make([][]uint32, len(data)),
		opts: opts,
		name: "sw-graph",
	}
	g.Bind(g.search)

	// Bootstrap: fully connect the first NN+1 points.
	boot := opts.NN + 1
	if boot > len(data) {
		boot = len(data)
	}
	for i := 0; i < boot; i++ {
		for j := 0; j < boot; j++ {
			if i != j {
				g.adj[i] = append(g.adj[i], uint32(j))
			}
		}
	}
	if boot >= len(data) {
		return g, nil
	}

	// Insertions are handed out one at a time so nodes enter the graph
	// roughly in id order: the insertion search may only visit nodes
	// [0, id), which are fully linked or being linked. Each worker keeps
	// its own RNG for entry-point draws.
	var mu sync.RWMutex
	pool := engine.NewPool(opts.Workers)
	rands := make([]*rand.Rand, pool.Workers())
	for w := range rands {
		rands[w] = rand.New(rand.NewSource(opts.Seed + int64(w)*7919))
	}
	pool.ForWithID(len(data)-boot, func(worker, j int) {
		g.insertSW(uint32(boot+j), rands[worker], &mu)
	})
	return g, nil
}

// insertSW links node id into the graph built so far.
func (g *Graph[T]) insertSW(id uint32, r *rand.Rand, mu *sync.RWMutex) {
	// Search the current graph for the NN closest nodes. The entry-point
	// randomizer must only pick already-inserted nodes: restrict by
	// retrying draws below id (ids are inserted roughly in order; under
	// parallel construction a slightly stale view is acceptable, as in
	// Malkov et al.'s concurrent insertions).
	ef := g.opts.NN * 2
	found := g.searchPartial(g.data[id], int(id), ef, g.opts.InitAttempts, r, mu)
	nn := g.opts.NN
	if nn > len(found) {
		nn = len(found)
	}
	mu.Lock()
	for _, nb := range found[:nn] {
		g.adj[id] = append(g.adj[id], nb.ID)
		g.adj[nb.ID] = append(g.adj[nb.ID], id)
	}
	mu.Unlock()
}

// searchPartial is the insertion-time greedy search, restricted to nodes
// with id < limit (only those are guaranteed to be linked already).
func (g *Graph[T]) searchPartial(query T, limit, ef, attempts int, r *rand.Rand, mu *sync.RWMutex) []topk.Neighbor {
	if limit <= 0 {
		return nil
	}
	visited := make([]bool, len(g.adj))
	results := topk.NewQueue(ef)
	var frontier topk.MinQueue

	for a := 0; a < attempts; a++ {
		entry := uint32(r.Intn(limit))
		if !visited[entry] {
			visited[entry] = true
			g.buildDist.Add(1)
			d := g.sp.Distance(g.data[entry], query)
			results.Push(entry, d)
			frontier.Push(entry, d)
		}
		for frontier.Len() > 0 {
			cur := frontier.Pop()
			if bound, ok := results.Bound(); ok && cur.Dist > bound {
				break
			}
			mu.RLock()
			nbs := append([]uint32(nil), g.adj[cur.ID]...)
			mu.RUnlock()
			for _, nb := range nbs {
				if int(nb) >= limit || visited[nb] {
					continue
				}
				visited[nb] = true
				g.buildDist.Add(1)
				d := g.sp.Distance(g.data[nb], query)
				if results.WouldAccept(d) {
					results.Push(nb, d)
					frontier.Push(nb, d)
				}
			}
		}
		frontier.Reset()
	}
	return results.Results()
}
