package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/topk"
)

var benchSink [][]topk.Neighbor

// BenchmarkSearchBatch measures batch-query throughput over the exact
// sequential scan on the synthetic SIFT workload: the serial reference loop
// against SearchBatch at growing pool sizes. Per-op work is constant (one
// whole batch), so ns/op directly compares wall-clock; on a multi-core
// machine the 4-worker case is expected to run >= 2x faster than serial.
func BenchmarkSearchBatch(b *testing.B) {
	data := dataset.SIFT(17, 4064)
	db, queries := data[:4000], data[4000:]
	scan := seqscan.New[[]float32](space.L2{}, db)
	const k = 10

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := make([][]topk.Neighbor, len(queries))
			for j, q := range queries {
				out[j] = scan.Search(q, k)
			}
			benchSink = out
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			p := engine.NewPool(workers)
			for i := 0; i < b.N; i++ {
				benchSink, _ = engine.SearchBatch[[]float32](p, scan, queries, index.Options{K: k})
			}
		})
	}
}

// BenchmarkPoolFor measures the work-pulling loop's fan-out overhead on
// trivially cheap loop bodies — the cost floor every parallel build path
// pays.
func BenchmarkPoolFor(b *testing.B) {
	sink := make([]int64, 4096)
	p := engine.Pool{}
	for i := 0; i < b.N; i++ {
		p.For(len(sink), func(_, j int) { sink[j] = int64(j) })
	}
}
