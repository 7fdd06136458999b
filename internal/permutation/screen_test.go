package permutation

import (
	"encoding/binary"
	"fmt"
	"math"
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

// screenOfPivots returns pv's screen, building it if need be; nil if it has
// none.
func screenOfPivots[T any](pv *Pivots[T]) screener[T] {
	if pv.screen == nil {
		return nil
	}
	return pv.screen()
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

// TestScreenedClosestMatchesMeasured holds the screen to the selection it
// replaces: at the served shape, points equal to a pivot included; over every
// dimension 0–17 at magnitudes from 1e-30 to 1e30, with a duplicated pivot
// (an exact tie, broken toward the smaller index), a point on it and the
// origin; and far from the origin, where ‖x‖² + ‖p‖² − 2x·p cancels down to
// small integer squared distances, many of them tied, whose size its rounding
// error reaches.
func TestScreenedClosestMatchesMeasured(t *testing.T) {
	pv, points := siftPivots(t)
	if screenOfPivots(pv) == nil {
		t.Fatal("L2 pivots got no screen")
	}
	checkScreened(t, pv, append(slices.Clone(points), pv.Items()[7], pv.Items()[300]))

	r := rand.New(rand.NewSource(13))
	for dim := 0; dim <= 17; dim++ {
		scale := math.Pow(10, float64(r.Intn(61)-30))
		vec := func() []float32 {
			v := make([]float32, dim)
			for j := range v {
				v[j] = float32(r.NormFloat64() * scale)
			}
			return v
		}
		items := make([][]float32, 40)
		for i := range items {
			items[i] = vec()
		}
		items[29] = slices.Clone(items[11])
		pv, err := NewPivots[[]float32](space.L2{}, items)
		if err != nil {
			t.Fatal(err)
		}
		checkScreened(t, pv, [][]float32{vec(), vec(), vec(), slices.Clone(items[11]), make([]float32, dim)})
	}

	base := make([]float32, 16)
	for j := range base {
		base[j] = float32(1e7 + r.Intn(1000))
	}
	near := func() []float32 {
		v := slices.Clone(base)
		for j := range v {
			v[j] += float32(r.Intn(7) - 3)
		}
		return v
	}
	items := make([][]float32, 60)
	for i := range items {
		items[i] = near()
	}
	pv, err := NewPivots[[]float32](space.L2{}, items)
	if err != nil {
		t.Fatal(err)
	}
	checkScreened(t, pv, [][]float32{near(), near(), near(), base})
}

// TestEditScreenMatchesMeasured holds the composition screen to the
// selection it replaces, under both Levenshteins: on 512 DNA reads of
// dna-direct's corpus (seed 1) and of seed 7's, reads equal to a pivot
// included, and on 40 pivots of random bytes from empty to past one 64-byte
// word, with a duplicated pivot, against points of the same kinds.
func TestEditScreenMatchesMeasured(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		pv, reads := dnaPivots(t, seed)
		if _, ok := screenOfPivots(pv).(*editScreen[[]byte]); !ok {
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

// TestScreenPrunes pins what the screens are for and where they stand aside.
// At the served shape the L2 screen measures hardly more than the 32 pivots
// it returns, and the composition screen at most 400 of 512 on dna-direct's
// reads. The L2 screen declines a point holding a NaN or an infinity, or of
// the wrong length, and such a point still gets the measured selection. A
// pivot set holding a NaN or an infinity, ragged pivots, a type embedding L2
// or a Levenshtein, a Counter and any other space get no screen at all.
func TestScreenPrunes(t *testing.T) {
	pv, points := siftPivots(t)
	sc := screenOfPivots(pv)
	var s Scratch
	measuredPivots := 0
	for _, x := range points {
		if !sc.closest(&s, x, 32) {
			t.Fatal("screen declined a finite point")
		}
		measuredPivots += s.Measured
	}
	if per := float64(measuredPivots) / float64(len(points)); per > 40 {
		t.Errorf("screen measured %.1f of 512 pivots per point to select 32, want at most 40", per)
	}

	withNaN, withInf := slices.Clone(points[0]), slices.Clone(points[0])
	withNaN[5] = float32(math.NaN())
	withInf[77] = float32(math.Inf(-1))
	for name, x := range map[string][]float32{"NaN": withNaN, "-Inf": withInf, "short": points[0][:100]} {
		if sc.closest(&s, x, 32) {
			t.Errorf("screen accepted a %s point", name)
		}
	}
	checkScreened(t, pv, [][]float32{withNaN, withInf})

	// The composition screen, at dna-direct's shape, measures at most 400 of
	// the 512 pivots per read to select 32.
	dna, reads := dnaPivots(t, 1)
	measuredPivots = 0
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
		if pv, _ := NewPivots(sp, reads); screenOfPivots(pv) != nil {
			t.Errorf("%s pivots got a screen", name)
		}
	}

	pts := [][]float32{{1, 2}, {3, 4}, {5, 6}}
	for name, sp := range map[string]space.Space[[]float32]{"L2-embedding": struct{ space.L2 }{}, "l1": space.L1{}} {
		if pv, _ := NewPivots(sp, pts); screenOfPivots(pv) != nil {
			t.Errorf("%s pivots got a screen", name)
		}
	}
	for name, items := range map[string][][]float32{
		"NaN pivot":  {{1, 2}, {float32(math.NaN()), 0}},
		"+Inf pivot": {{1, 2}, {float32(math.Inf(1)), 0}},
		"ragged":     {{1, 2}, {3}},
	} {
		if pv, _ := NewPivots[[]float32](space.L2{}, items); screenOfPivots(pv) != nil {
			t.Errorf("%s: pivots got a screen", name)
		}
	}
}

// FuzzScreenedClosest reads raw float32 bit patterns — NaN, ±Inf, subnormals,
// the extremes, repeats — as one point and up to 64 pivots of 1–8
// coordinates, and requires the screened selection to equal the measured one
// for every n; a point or a pivot set the screen cannot vouch for must fall
// back to measuring.
func FuzzScreenedClosest(f *testing.F) {
	le := func(bits ...uint32) []byte {
		var out []byte
		for _, b := range bits {
			out = binary.LittleEndian.AppendUint32(out, b)
		}
		return out
	}
	const nan, inf, negInf, sub, maxF, negMaxF = 0x7fc00000, 0x7f800000, 0xff800000, 0x00000001, 0x7f7fffff, 0xff7fffff
	const negZero, one, two = 0x80000000, 0x3f800000, 0x40000000
	f.Add(uint8(0), le(one, one, two, negZero, one, sub, maxF))
	f.Add(uint8(1), le(one, two, one, two, two, one, one, two, one, two, two, one))
	f.Add(uint8(2), le(maxF, negMaxF, sub, maxF, negMaxF, sub, negMaxF, maxF, negZero, sub, sub, sub))
	f.Add(uint8(1), le(nan, one, one, two, two, one))
	f.Add(uint8(0), le(one, inf, negInf, two))
	var plain []uint32
	for i := range 60 {
		plain = append(plain, math.Float32bits(float32(1e3*math.Sin(float64(97*i*i+3)))))
	}
	f.Add(uint8(2), le(plain...))
	f.Fuzz(func(t *testing.T, shape uint8, raw []byte) {
		dim := 1 + int(shape%8)
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		m := min(len(vals)/dim-1, 64)
		if m < 1 {
			return
		}
		items := make([][]float32, m)
		for i := range items {
			items[i] = vals[(i+1)*dim : (i+2)*dim]
		}
		pv, err := NewPivots[[]float32](space.L2{}, items)
		if err != nil {
			t.Fatal(err)
		}
		checkScreened(t, pv, [][]float32{vals[:dim]})
	})
}

// BenchmarkClosest is one point's 32 closest of 512 pivots — the shape of a
// NAPP build row and of a served query's pivot selection (m = 512, mi = ms =
// 32) — screened, beside -measured, the selection it replaced: all 512
// pivots through space.ManyFrom, then topk.SelectK. The points are SIFT-like
// under L2, then DNA reads under normalised Levenshtein from dna-direct's
// corpus (seed 1), where the composition screen skips about a third of the
// pivots, and from seed 7's, where it skips almost none.
func BenchmarkClosest(b *testing.B) {
	pv, points := siftPivots(b)
	benchClosest(b, "l2/128-closest32of512", pv, points)
	for _, seed := range []int64{1, 7} {
		pv, reads := dnaPivots(b, seed)
		benchClosest(b, fmt.Sprintf("normleven/32-s%d-closest32of512", seed), pv, reads)
	}
}

func benchClosest[T any](b *testing.B, name string, pv *Pivots[T], points []T) {
	for _, row := range []struct {
		name string
		pv   *Pivots[T]
	}{{name, pv}, {name + "-measured", measured(pv)}} {
		b.Run(row.name, func(b *testing.B) {
			var s Scratch
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				row.pv.ClosestWith(&s, points[i%len(points)], 32)
				i++
			}
		})
	}
}
