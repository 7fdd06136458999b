package knngraph

import (
	"io"

	"repro/internal/codec"
	"repro/internal/space"
)

// Persistence. A proximity graph is its adjacency lists plus the options
// that drive the query-time restart search. Search keeps no state, so a
// graph's bytes do not depend on the queries it has answered.

// kindOf maps the graph's report name to its codec kind tag.
func (g *Graph[T]) kindOf() string {
	if g.name == "nndescent-graph" {
		return codec.KindNNDescent
	}
	return codec.KindSWGraph
}

// Save serializes the graph under its construction kind ("sw-graph" or
// "nndescent-graph").
func (g *Graph[T]) Save(w io.Writer) error {
	cw := codec.NewWriter(w, g.kindOf(), g.sp.Name(), len(g.data))
	cw.Int(g.opts.NN)
	cw.Int(g.opts.InitAttempts)
	cw.Int(g.opts.EfSearch)
	cw.F64(g.opts.Rho)
	cw.F64(g.opts.Delta)
	cw.Int(g.opts.MaxIters)
	cw.Int(g.opts.RandomLinks)
	cw.I64(g.opts.Seed)
	cw.I64(g.buildDist.Load())
	cw.Int(len(g.adj))
	for _, nbrs := range g.adj {
		cw.U32s(nbrs)
	}
	return cw.Close()
}

// Load reads a graph saved by Save over the same data. kind selects which of
// the two construction flavors the file must hold (codec.KindSWGraph or
// codec.KindNNDescent).
func Load[T any](cr *codec.Reader, kind string, sp space.Space[T], data []T) (*Graph[T], error) {
	if err := cr.Expect(kind, sp.Name(), len(data)); err != nil {
		return nil, err
	}
	name := "sw-graph"
	if kind == codec.KindNNDescent {
		name = "nndescent-graph"
	}
	g := &Graph[T]{sp: sp, data: data, name: name}
	g.Bind(g.search)
	g.opts.NN = cr.Int()
	g.opts.InitAttempts = cr.Int()
	g.opts.EfSearch = cr.Int()
	g.opts.Rho = cr.F64()
	g.opts.Delta = cr.F64()
	g.opts.MaxIters = cr.Int()
	g.opts.RandomLinks = cr.Int()
	g.opts.Seed = cr.I64()
	g.buildDist.Store(cr.I64())
	nodes := cr.Int()
	if cr.Err() == nil && (nodes != len(data) || g.opts.InitAttempts <= 0) {
		cr.Corruptf("graph has %d nodes, data set has %d (attempts=%d)",
			nodes, len(data), g.opts.InitAttempts)
	}
	if cr.Err() == nil {
		g.adj = make([][]uint32, nodes)
		for i := range g.adj {
			nbrs := cr.U32s()
			for _, nb := range nbrs {
				if int(nb) >= len(data) {
					cr.Corruptf("node %d links to unknown id %d", i, nb)
					break
				}
			}
			if cr.Err() != nil {
				break
			}
			g.adj[i] = nbrs
		}
	}
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	return g, nil
}
