package permutation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/space"
)

// measured returns a copy of pv without its screen, whose ClosestWith
// measures every pivot: the selection the screened one must reproduce.
func measured[T any](pv *Pivots[T]) *Pivots[T] {
	cp := *pv
	cp.screen = nil
	return &cp
}

// checkScreened asserts that pv's ClosestWith selects what measuring every
// pivot selects, for each point of xs and each n of interest — every n in
// -1..m+1 for a small pivot set; the edges and the served prefix lengths for
// a large one — each side reusing one Scratch throughout, as a build worker
// does.
func checkScreened[T any](t testing.TB, pv *Pivots[T], xs []T) {
	t.Helper()
	ref, m := measured(pv), pv.M()
	ns := []int{-1, 0, 1, 2, 3, 31, 32, 33, m / 2, m - 2, m - 1, m, m + 1}
	if m <= 64 {
		ns = ns[:0]
		for n := -1; n <= m+1; n++ {
			ns = append(ns, n)
		}
	}
	var s, rs Scratch
	for _, x := range xs {
		for _, n := range ns {
			if got, want := pv.ClosestWith(&s, x, n), ref.ClosestWith(&rs, x, n); !slices.Equal(got, want) {
				t.Fatalf("m=%d n=%d x=%v: screened %v, measured %v", m, n, x, got, want)
			}
		}
	}
}

// siftPivots returns the served shape — 512 SIFT-like pivots of 128
// dimensions — and 24 more points of the same corpus.
func siftPivots(tb testing.TB) (*Pivots[[]float32], [][]float32) {
	tb.Helper()
	sift := dataset.SIFT(9, 512+24)
	pv, err := NewPivots[[]float32](space.L2{}, sift[:512])
	if err != nil {
		tb.Fatal(err)
	}
	return pv, sift[512:]
}

// dnaPivots returns 512 reads of the DNA corpus of seed as normalised
// Levenshtein pivots, and 64 more reads of it.
func dnaPivots(tb testing.TB, seed int64) (*Pivots[[]byte], [][]byte) {
	tb.Helper()
	reads := dataset.DNA(seed, 512+64, dataset.DNAOptions{})
	pv, err := NewPivots[[]byte](space.NormalizedLevenshtein{}, reads[:512])
	if err != nil {
		tb.Fatal(err)
	}
	return pv, reads[512:]
}

// TestEditScreenMatchesMeasured holds the composition screen to the
// selection it replaces, under both Levenshteins: on 512 DNA reads of
// dna-direct's corpus (seed 1) and of seed 7's, reads equal to a pivot
// included, and on 40 pivots of random bytes from empty to past one 64-byte
// word, with a duplicated pivot, against points of the same kinds.
func TestEditScreenMatchesMeasured(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		pv, reads := dnaPivots(t, seed)
		if pv.screen == nil {
			t.Fatal("normalised Levenshtein pivots got no composition screen")
		}
		checkScreened(t, pv, append(reads[:16:16], pv.Items()[5], pv.Items()[400]))
	}
	r := rand.New(rand.NewSource(17))
	str := func() []byte {
		b := make([]byte, r.Intn(131))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return b
	}
	items := make([][]byte, 40)
	for i := range items {
		items[i] = str()
	}
	items[31] = slices.Clone(items[4])
	for _, sp := range []space.Space[[]byte]{space.Levenshtein{}, space.NormalizedLevenshtein{}} {
		pv, err := NewPivots(sp, items)
		if err != nil {
			t.Fatal(err)
		}
		checkScreened(t, pv, [][]byte{str(), str(), {}, slices.Clone(items[4]), slices.Clone(items[39])})
	}
}

// TestScreenPrunes pins what the composition screen is for and where it
// stands aside: at dna-direct's shape it measures at most 400 of the 512
// pivots per read to select 32, and L2, L1, a type embedding L2 or a
// Levenshtein, and a Counter get no screen at all.
func TestScreenPrunes(t *testing.T) {
	var s Scratch
	dna, reads := dnaPivots(t, 1)
	measuredPivots := 0
	for _, x := range reads {
		dna.ClosestWith(&s, x, 32)
		measuredPivots += s.Measured
	}
	if per := float64(measuredPivots) / float64(len(reads)); per > 400 {
		t.Errorf("composition screen measured %.1f of 512 pivots per read to select 32, want at most 400", per)
	}
	reads = reads[:3]
	for name, sp := range map[string]space.Space[[]byte]{
		"Levenshtein-embedding": struct{ space.NormalizedLevenshtein }{},
		"counter":               space.NewCounter[[]byte](space.NormalizedLevenshtein{}),
	} {
		if pv, _ := NewPivots(sp, reads); pv.screen != nil {
			t.Errorf("%s pivots got a screen", name)
		}
	}

	pts := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	for name, sp := range map[string]space.Space[[]float32]{"l2": space.L2{}, "L2-embedding": struct{ space.L2 }{}, "l1": space.L1{}} {
		if pv, _ := NewPivots(sp, pts); pv.screen != nil {
			t.Errorf("%s pivots got a screen", name)
		}
	}
}

// BenchmarkClosest is one point's 32 closest of 512 pivots — the shape of a
// NAPP build row and of a served query's pivot selection (m = 512, mi = ms =
// 32). The points are SIFT-like under L2, where every pivot is measured (all
// 512 through space.ManyFrom's pair kernel, then topk.SelectK), then DNA
// reads under normalised Levenshtein, screened beside -measured, the
// selection the composition screen replaced: from dna-direct's corpus (seed
// 1), where the screen skips about a third of the pivots, and from seed 7's,
// where it skips almost none.
func BenchmarkClosest(b *testing.B) {
	pv, points := siftPivots(b)
	benchClosest(b, "l2/128-closest32of512", pv, points)
	for _, seed := range []int64{1, 7} {
		pv, reads := dnaPivots(b, seed)
		benchClosest(b, fmt.Sprintf("normleven/32-s%d-closest32of512", seed), pv, reads)
		benchClosest(b, fmt.Sprintf("normleven/32-s%d-closest32of512-measured", seed), measured(pv), reads)
	}
}

func benchClosest[T any](b *testing.B, name string, pv *Pivots[T], points []T) {
	b.Run(name, func(b *testing.B) {
		var s Scratch
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			pv.ClosestWith(&s, points[i%len(points)], 32)
			i++
		}
	})
}
