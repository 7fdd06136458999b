package knngraph

import (
	"fmt"
	"runtime"

	"repro/internal/engine"
	"repro/internal/space"
)

// swStaleness sets the SW batch schedule: once linked nodes are in the
// graph, the next max(1, linked/swStaleness) are inserted as one batch, so
// a node can miss a link only to the few percent of its predecessors that
// share its batch.
const swStaleness = 16

// NewSW builds a proximity graph with the search-based insertion algorithm
// of Malkov et al. (Small World graphs, §3.2 of the paper): points are
// inserted in id order; each insertion searches the graph built so far for
// the new point's NN nearest neighbors (with InitAttempts restarts) and
// links to them bidirectionally. Insertion is batch-synchronous: the nodes
// of one batch search the graph as it stood at the batch start, in parallel
// on the query path's traversal, and their links are applied in id order at
// the batch barrier — Malkov's concurrent insertions with the staleness
// defined by the schedule (swStaleness) instead of by the scheduler.
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
	boot := min(opts.NN+1, len(data))
	for i := 0; i < boot; i++ {
		for j := 0; j < boot; j++ {
			if i != j {
				g.adj[i] = append(g.adj[i], uint32(j))
			}
		}
	}

	workers := runtime.GOMAXPROCS(0)
	pool, scr := engine.NewPool(workers), make([]graphScratch, workers)
	for start := boot; start < len(data); {
		end := min(start+max(1, start/swStaleness), len(data))
		pool.For(end-start, func(w, j int) {
			id := start + j
			s := &scr[w]
			s.begin(start, 2*opts.NN)
			g.buildDist.Add(int64(g.traverse(s, data[id], opts.InitAttempts, start, uint64(id))))
			s.drain = s.results.AppendResults(s.drain[:0])
			links := make([]uint32, min(opts.NN, len(s.drain)))
			for i := range links {
				links[i] = s.drain[i].ID
			}
			g.adj[id] = links
		})
		for id := start; id < end; id++ {
			for _, nb := range g.adj[id] {
				g.adj[nb] = append(g.adj[nb], uint32(id))
			}
		}
		start = end
	}
	return g, nil
}
