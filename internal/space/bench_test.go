package space_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/space"
)

var sinkDistance float64

// benchDistance times sp over consecutive pairs of objs, so the row is a
// mean over the corpus's own shape distribution rather than one pair.
func benchDistance[T any](b *testing.B, name string, sp space.Space[T], objs []T) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		for i, j := 0, 0; i < b.N; i++ {
			next := j + 1
			if next == len(objs) {
				next = 0 // no division in the timed loop: l2/128 is ~130 ns
			}
			sinkDistance += sp.Distance(objs[j], objs[next])
			j = next
		}
	})
}

// BenchmarkDistance is one row per served distance at the shape its corpus
// has: what a pivot ranking or a refine pays per call. normleven/200 is the
// edit-distance kernel past its 64-byte word (four blocks).
//
// The l2/128-refine700-n40k and l2/128-pivots512 rows are one SIFT query's
// two bulk calls at permbench's sift-batch operating point: a refine of 700
// sorted random ids over a 40k corpus (space.Many: mostly cache-missing
// candidates) and a ranking of 512 pivots (space.ManyFrom: a hot set). Each
// op is the whole call; the -loop row beside it is the per-pair Distance
// loop both replace, over the same ids.
func BenchmarkDistance(b *testing.B) {
	const n, seed = 256, 1
	benchDistance(b, "l2/128", space.L2{}, dataset.SIFT(seed, n))
	benchDistance(b, "normleven/32", space.NormalizedLevenshtein{}, dataset.DNA(seed, n, dataset.DNAOptions{}))
	benchDistance(b, "normleven/200", space.NormalizedLevenshtein{},
		dataset.DNA(seed, n, dataset.DNAOptions{MeanLen: 200, SDLen: 25}))
	benchDistance(b, "sqfd/20x7", space.SQFD{}, dataset.ImageNet(seed, 32, dataset.SignatureOptions{}))
	benchDistance(b, "kldiv/128", space.KLDivergence{}, dataset.WikiLDA(seed, n, 128))

	var sp space.Space[[]float32] = space.L2{}
	corpus := dataset.SIFT(seed, 40_000+1)
	query, corpus := corpus[len(corpus)-1], corpus[:len(corpus)-1]
	r := rand.New(rand.NewSource(seed))
	// 64 queries' candidate sets touch ≈ the whole 20 MB corpus, so a
	// refine op finds its candidates where a served query does: mostly
	// outside the cache.
	idSets := make([][]uint32, 64)
	for q := range idSets {
		ids := make([]uint32, 700)
		for i, j := range r.Perm(len(corpus))[:len(ids)] {
			ids[i] = uint32(j)
		}
		slices.Sort(ids)
		idSets[q] = ids
	}
	pivots := make([][]float32, 512)
	for i, j := range r.Perm(len(corpus))[:len(pivots)] {
		pivots[i] = corpus[j]
	}
	dst := make([]float64, max(len(idSets[0]), len(pivots)))
	var s space.Scratch
	bulk := func(name string, call func(ids []uint32)) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			q := 0
			for b.Loop() {
				call(idSets[q])
				q = (q + 1) % len(idSets)
			}
			sinkDistance += dst[0]
		})
	}
	bulk("l2/128-refine700-n40k", func(ids []uint32) { space.Many(sp, &s, dst, query, corpus, ids) })
	bulk("l2/128-refine700-n40k-loop", func(ids []uint32) {
		for i, id := range ids {
			dst[i] = sp.Distance(corpus[id], query)
		}
	})
	bulk("l2/128-pivots512", func([]uint32) { space.ManyFrom(sp, &s, dst, query, pivots) })
	bulk("l2/128-pivots512-loop", func([]uint32) {
		for i, pv := range pivots {
			dst[i] = sp.Distance(query, pv)
		}
	})
}
