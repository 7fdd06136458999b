package space_test

import (
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
func BenchmarkDistance(b *testing.B) {
	const n, seed = 256, 1
	benchDistance(b, "l2/128", space.L2{}, dataset.SIFT(seed, n))
	benchDistance(b, "normleven/32", space.NormalizedLevenshtein{}, dataset.DNA(seed, n, dataset.DNAOptions{}))
	benchDistance(b, "normleven/200", space.NormalizedLevenshtein{},
		dataset.DNA(seed, n, dataset.DNAOptions{MeanLen: 200, SDLen: 25}))
	benchDistance(b, "sqfd/20x7", space.SQFD{}, dataset.ImageNet(seed, 32, dataset.SignatureOptions{}))
	benchDistance(b, "kldiv/128", space.KLDivergence{}, dataset.WikiLDA(seed, n, 128))
}
