package space

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/topk"
)

// pushAll is what Closest must leave in a queue of k: every item measured by
// Distance and offered, in ids order.
func pushAll[T any](sp Space[T], k int, query T, data []T, ids []uint32) []topk.Neighbor {
	var q topk.Queue
	q.Reset(k)
	for _, id := range ids {
		q.Push(id, sp.Distance(data[id], query))
	}
	return q.AppendResults(nil)
}

// checkClosest asserts that Closest keeps what pushAll keeps, bit for bit,
// and returns how many distances it measured, which must lie between what a
// queue of k needs and every item.
func checkClosest[T any](t testing.TB, sp Space[T], s *Scratch, k int, query T, data []T, counts []Counts, ids []uint32) int {
	t.Helper()
	var q topk.Queue
	q.Reset(k)
	measured := Closest(sp, s, &q, query, data, counts, ids)
	got, want := q.AppendResults(nil), pushAll(sp, k, query, data, ids)
	if !slices.Equal(got, want) {
		t.Fatalf("%s k=%d query %v over %d ids:\n got %v\nwant %v", sp.Name(), k, query, len(ids), got, want)
	}
	if measured < min(k, len(ids)) || measured > len(ids) {
		t.Fatalf("%s k=%d: measured %d of %d ids", sp.Name(), k, measured, len(ids))
	}
	return measured
}

// checkMeasuresAll runs checkClosest for a space Closest does not screen,
// over id subsets of every size in random order and queues of 1 to more than
// the items: each call must measure every id.
func checkMeasuresAll[T any](t *testing.T, r *rand.Rand, sp Space[T], query T, data []T, counts []Counts) {
	t.Helper()
	var s Scratch
	for _, n := range []int{0, 1, 2, 5, 17, len(data)} {
		ids := make([]uint32, 0, n)
		for _, p := range r.Perm(len(data))[:n] {
			ids = append(ids, uint32(p))
		}
		for _, k := range []int{1, 3, 10, len(data) + 1} {
			if m := checkClosest(t, sp, &s, k, query, data, counts, ids); m != len(ids) {
				t.Fatalf("%s k=%d: measured %d of %d ids, want all", sp.Name(), k, m, len(ids))
			}
		}
	}
}

// TestClosestMatchesPushingAll holds the screened kernel to measuring every
// item: queries of 0, 1, 31–33, 63–65, 80 and 130 bytes (the prepared word's
// edges and the EditDistance fallback on both sides of it), over a set of
// mutated copies of the query — ties, near neighbours the bound cannot rule
// out — beside reads of every length from empty to past one word, bytes
// outside ACGT, and duplicates, as id subsets of every size in random order,
// for queues of 1 to more than the items. The screen must also skip: over
// the lot it measures well under every item.
func TestClosestMatchesPushingAll(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	var s Scratch
	measured, total := 0, 0
	for _, m := range []int{0, 1, 31, 32, 33, 63, 64, 65, 80, 130} {
		query := randBytes(r, m, 4)
		var data [][]byte
		for range 60 {
			data = append(data, mutate(r, query, 1+r.Intn(6), 4))
		}
		for _, n := range []int{0, 1, 2, 7, 30, 40, 63, 64, 65, 70, 130, 200} {
			data = append(data, randBytes(r, n, 4), randBytes(r, n, 256))
		}
		data = append(data, bytes.Clone(query), bytes.Clone(data[3]), bytes.Clone(data[3]))
		for _, sp := range []Space[[]byte]{NormalizedLevenshtein{}, Levenshtein{}} {
			counts := CountTable(sp, data)
			for _, n := range []int{0, 1, 2, 5, 17, len(data)} {
				ids := make([]uint32, 0, n)
				for _, p := range r.Perm(len(data))[:n] {
					ids = append(ids, uint32(p))
				}
				for _, k := range []int{1, 2, 3, 10, 50, len(data) + 1} {
					measured += checkClosest(t, sp, &s, k, query, data, counts, ids)
					total += len(ids)
				}
			}
		}
	}
	if measured > total*3/4 {
		t.Errorf("the screen measured %d of %d items, want at most 3/4", measured, total)
	}

	// Without a screen — another space, or a wrapper given a table — every
	// item is measured: L2 over an odd count (the pair kernel's tail), KL
	// (asymmetric: data on the left), a Counter around Levenshtein.
	vecs := make([][]float32, 41)
	hists := make([]Histogram, 41)
	reads := make([][]byte, 41)
	for i := range vecs {
		vecs[i] = make([]float32, 9)
		for j := range vecs[i] {
			vecs[i][j] = float32(r.Intn(4)) // small integers: exact ties
		}
		hists[i] = NewHistogram(vecs[i])
		reads[i] = randBytes(r, 20+r.Intn(30), 4)
	}
	checkMeasuresAll(t, r, Space[[]float32](L2{}), vecs[0], vecs[1:], nil)
	checkMeasuresAll(t, r, Space[Histogram](KLDivergence{}), hists[0], hists[1:], nil)
	checkMeasuresAll(t, r, Space[[]byte](NewCounter[[]byte](Levenshtein{})), reads[0], reads[1:], CountTable[[]byte](Levenshtein{}, reads[1:]))
}

// embeddedLeven embeds NormalizedLevenshtein but answers its own Distance:
// neither it nor a Counter may be screened around.
type embeddedLeven struct{ NormalizedLevenshtein }

func (embeddedLeven) Distance(a, b []byte) float64 { return -1 }

// TestClosestDispatch pins the exact-type rule: only the two Levenshteins
// get a composition table and a screen; a wrapper, a Counter and a missing
// table measure every item through Distance.
func TestClosestDispatch(t *testing.T) {
	data := [][]byte{[]byte("ACGT"), []byte("ACGA"), {}}
	want := []Counts{{1, 1, 1, 1}, {2, 1, 0, 1}, {}}
	for _, sp := range []Space[[]byte]{Levenshtein{}, NormalizedLevenshtein{}} {
		if got := CountTable(sp, data); !slices.Equal(got, want) {
			t.Errorf("%s: CountTable = %v, want %v", sp.Name(), got, want)
		}
	}
	var s Scratch
	var q topk.Queue
	ids := []uint32{0, 1, 2}
	counts := CountTable[[]byte](Levenshtein{}, data)
	counter := NewCounter[[]byte](NormalizedLevenshtein{})
	for name, sp := range map[string]Space[[]byte]{
		"embedding": embeddedLeven{},
		"counter":   counter,
	} {
		if CountTable(sp, data) != nil {
			t.Errorf("%s: got a composition table", name)
		}
		q.Reset(2)
		if m := Closest(sp, &s, &q, data[0], data, counts, ids); m != len(ids) {
			t.Errorf("%s: Closest measured %d of %d", name, m, len(ids))
		}
		if res := q.AppendResults(nil); name == "embedding" && res[0].Dist != -1 {
			t.Errorf("embedding: Closest kept %v, not its Distance", res)
		}
	}
	if counter.Count() != int64(len(ids)) {
		t.Errorf("counter: %d Distance calls, want %d", counter.Count(), len(ids))
	}
	q.Reset(2)
	if m := Closest[[]byte](Levenshtein{}, &s, &q, data[0], data, nil, ids); m != len(ids) {
		t.Errorf("no table: Closest measured %d of %d", m, len(ids))
	}
	if CountTable[[]float32](L2{}, [][]float32{{1}}) != nil {
		t.Error("L2 got a composition table")
	}
}

// TestClosestAllocs: a warm Scratch and queue make Closest allocation-free,
// screened (normalised Levenshtein) or not (L2).
func TestClosestAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	data := make([][]byte, 300)
	vecs := make([][]float32, len(data))
	for i := range data {
		data[i] = randBytes(r, 28+r.Intn(9), 4)
		vecs[i] = make([]float32, 128)
		for j := range vecs[i] {
			vecs[i][j] = r.Float32()
		}
	}
	counts := CountTable[[]byte](NormalizedLevenshtein{}, data)
	ids := make([]uint32, len(data))
	for i := range ids {
		ids[i] = uint32(i)
	}
	var s Scratch
	var q topk.Queue
	for name, run := range map[string]func(){
		"normleven": func() {
			q.Reset(10)
			Closest[[]byte](NormalizedLevenshtein{}, &s, &q, data[7], data, counts, ids)
		},
		"l2": func() {
			q.Reset(10)
			Closest[[]float32](L2{}, &s, &q, vecs[7], vecs, nil, ids)
		},
	} {
		run()
		if avg := testing.AllocsPerRun(20, run); avg != 0 {
			t.Errorf("%s: warm Closest allocates %v times per call, want 0", name, avg)
		}
	}
}

// FuzzEditBound holds the composition bound to the distance it bounds, for
// any pair of byte strings — empty, past one 64-byte word, outside ACGT: the
// integer is at most EditDistance and the same either way round, and scaled
// as NormalizedLevenshtein divides it is at most Distance, bit for bit. Then
// Closest over a few strings built from the pair keeps, for every queue
// size, what measuring them all keeps.
func FuzzEditBound(f *testing.F) {
	r := rand.New(rand.NewSource(33))
	f.Add([]byte{}, []byte{})
	f.Add([]byte{}, []byte("ACGT"))
	f.Add([]byte("kitten"), []byte("sitting"))
	f.Add([]byte("AAAA"), []byte("TTTTTT"))
	for _, n := range []int{31, 64, 65, 130} {
		a := randBytes(r, n, 4)
		f.Add(a, mutate(r, a, 4, 4))
		f.Add(randBytes(r, n, 256), randBytes(r, n+9, 256))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		const maxLen = 1000
		a, b = a[:min(len(a), maxLen)], b[:min(len(b), maxLen)]
		ca, cb := countsOf(a), countsOf(b)
		bound, d := editBound(&ca, &cb), EditDistance(a, b)
		if bound > d {
			t.Fatalf("bound(%q, %q) = %d > EditDistance %d", a, b, bound, d)
		}
		if rev := editBound(&cb, &ca); rev != bound {
			t.Fatalf("bound(%q, %q) = %d but %d swapped", a, b, bound, rev)
		}
		if lb, dist := scaled(bound, true, max(len(a), len(b))), (NormalizedLevenshtein{}).Distance(a, b); lb > dist {
			t.Fatalf("normalised bound(%q, %q) = %v > Distance %v", a, b, lb, dist)
		}
		data := [][]byte{b, a, append(bytes.Clone(b), a...), b[:len(b)/2], {}, bytes.Clone(a)}
		ids := []uint32{5, 0, 3, 2, 4, 1}
		var s Scratch
		for _, sp := range []Space[[]byte]{NormalizedLevenshtein{}, Levenshtein{}} {
			counts := CountTable(sp, data)
			for k := 1; k <= len(ids); k++ {
				checkClosest(t, sp, &s, k, a, data, counts, ids)
			}
		}
	})
}
