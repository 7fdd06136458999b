package space_test

import (
	"fmt"
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
// The -refine and -pivots rows are one query's two bulk calls at a permbench
// operating point: l2/128 at sift-batch's (700 candidates of 40k), normleven/32
// at dna-direct's (650 of 4k); see benchBulk.
func BenchmarkDistance(b *testing.B) {
	const n, seed = 256, 1
	benchDistance(b, "l2/128", space.L2{}, dataset.SIFT(seed, n))
	reads := dataset.DNA(seed, n, dataset.DNAOptions{})
	benchDistance(b, "normleven/32", space.NormalizedLevenshtein{}, reads)
	benchEditArms(b, "normleven/32", reads)
	benchDistance(b, "normleven/200", space.NormalizedLevenshtein{},
		dataset.DNA(seed, n, dataset.DNAOptions{MeanLen: 200, SDLen: 25}))
	benchDistance(b, "sqfd/20x7", space.SQFD{}, dataset.ImageNet(seed, 32, dataset.SignatureOptions{}))
	benchDistance(b, "kldiv/128", space.KLDivergence{}, dataset.WikiLDA(seed, n, 128))

	benchBulk(b, "l2/128", space.L2{}, dataset.SIFT(seed, 40_000+1), 700)
	benchBulk(b, "normleven/32", space.NormalizedLevenshtein{}, dataset.DNA(seed, 4_000+1, dataset.DNAOptions{}), 650)
}

// benchEditArms adds a row per body that measures edit distances in bulk,
// called directly: <name>-pair is two editPair passes and <name>-quad one
// editQuad pass (where the CPU runs it), each op four distances from the last
// read, prepared once, to the next four of the others.
func benchEditArms(b *testing.B, name string, reads [][]byte) {
	pat, reads := reads[len(reads)-1], reads[:len(reads)-1]
	reads = reads[:len(reads)&^3]
	pair, quad := space.EditArms(pat)
	for _, arm := range []struct {
		row  string
		call func(t *[4][]byte) [4]int
	}{{"-pair", pair}, {"-quad", quad}} {
		if arm.call == nil {
			continue
		}
		b.Run(name+arm.row, func(b *testing.B) {
			b.ReportAllocs()
			var t [4][]byte
			j := 0
			for b.Loop() {
				copy(t[:], reads[j:j+4])
				d := arm.call(&t)
				sinkDistance += float64(d[0])
				if j += 4; j == len(reads) {
					j = 0
				}
			}
		})
	}
}

// benchBulk adds four rows for one query, the corpus's last object, against
// the rest: <name>-refine<nRefine>-n<N/1000>k refines nRefine sorted random
// ids (space.Many; the candidates of 64 rotating queries, so over a large
// corpus they are mostly cache-missing) and <name>-pivots512 ranks 512 random
// pivots (space.ManyFrom: a hot set). Each op is the whole call; the -loop row
// beside each is the per-pair Distance loop both replace, over the same ids.
func benchBulk[T any](b *testing.B, name string, sp space.Space[T], corpus []T, nRefine int) {
	query, corpus := corpus[len(corpus)-1], corpus[:len(corpus)-1]
	r := rand.New(rand.NewSource(1))
	idSets := make([][]uint32, 64)
	for q := range idSets {
		ids := make([]uint32, nRefine)
		for i, j := range r.Perm(len(corpus))[:len(ids)] {
			ids[i] = uint32(j)
		}
		slices.Sort(ids)
		idSets[q] = ids
	}
	pivots := make([]T, 512)
	for i, j := range r.Perm(len(corpus))[:len(pivots)] {
		pivots[i] = corpus[j]
	}
	dst := make([]float64, max(nRefine, len(pivots)))
	var s space.Scratch
	bulk := func(row string, call func(ids []uint32)) {
		b.Run(name+row, func(b *testing.B) {
			b.ReportAllocs()
			q := 0
			for b.Loop() {
				call(idSets[q])
				q = (q + 1) % len(idSets)
			}
			sinkDistance += dst[0]
		})
	}
	refine := fmt.Sprintf("-refine%d-n%dk", nRefine, len(corpus)/1000)
	bulk(refine, func(ids []uint32) { space.Many(sp, &s, dst, query, corpus, ids) })
	bulk(refine+"-loop", func(ids []uint32) {
		for i, id := range ids {
			dst[i] = sp.Distance(corpus[id], query)
		}
	})
	bulk("-pivots512", func([]uint32) { space.ManyFrom(sp, &s, dst, query, pivots) })
	bulk("-pivots512-loop", func([]uint32) {
		for i, pv := range pivots {
			dst[i] = sp.Distance(query, pv)
		}
	})
}
