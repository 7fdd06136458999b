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
func pushAll(sp Space[[]byte], k int, query []byte, data [][]byte, ids []uint32) []topk.Neighbor {
	q := topk.NewQueue(k)
	for _, id := range ids {
		q.Push(id, sp.Distance(data[id], query))
	}
	return q.Results()
}

// checkClosest asserts that Closest keeps what pushAll keeps, bit for bit,
// and returns how many distances it measured, which must lie between what a
// queue of k needs and every item.
func checkClosest(t testing.TB, sp Space[[]byte], s *Scratch, k int, query []byte, data [][]byte, counts []Counts, ids []uint32) int {
	t.Helper()
	var q topk.Queue
	q.Reset(k)
	measured, ok := Closest(sp, s, &q, query, data, counts, ids)
	if !ok {
		t.Fatalf("%s: Closest declined", sp.Name())
	}
	got, want := q.Results(), pushAll(sp, k, query, data, ids)
	if !slices.Equal(got, want) {
		t.Fatalf("%s k=%d query %q over %d ids:\n got %v\nwant %v", sp.Name(), k, query, len(ids), got, want)
	}
	if measured < min(k, len(ids)) || measured > len(ids) {
		t.Fatalf("%s k=%d: measured %d of %d ids", sp.Name(), k, measured, len(ids))
	}
	return measured
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
}

// embeddedLeven embeds NormalizedLevenshtein but answers its own Distance:
// neither it nor a Counter may be screened around.
type embeddedLeven struct{ NormalizedLevenshtein }

func (embeddedLeven) Distance(a, b []byte) float64 { return -1 }

// TestClosestDispatch pins the exact-type rule: only the two Levenshteins
// get a composition table and a screen; a wrapper, a Counter, another space
// and a missing table are declined, untouched, so their caller measures
// every item through Distance.
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
	q.Reset(2)
	counts := CountTable[[]byte](Levenshtein{}, data)
	for name, sp := range map[string]Space[[]byte]{
		"embedding": embeddedLeven{},
		"counter":   NewCounter[[]byte](NormalizedLevenshtein{}),
	} {
		if CountTable(sp, data) != nil {
			t.Errorf("%s: got a composition table", name)
		}
		if _, ok := Closest(sp, &s, &q, data[0], data, counts, []uint32{0, 1, 2}); ok || q.Len() != 0 {
			t.Errorf("%s: Closest screened (ok=%v, %d pushed)", name, ok, q.Len())
		}
	}
	if _, ok := Closest[[]byte](Levenshtein{}, &s, &q, data[0], data, nil, []uint32{0, 1, 2}); ok || q.Len() != 0 {
		t.Errorf("no table: Closest screened (ok=%v, %d pushed)", ok, q.Len())
	}
	if CountTable[[]float32](L2{}, [][]float32{{1}}) != nil {
		t.Error("L2 got a composition table")
	}
}

// TestClosestAllocs: a warm Scratch and queue make Closest allocation-free.
func TestClosestAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	data := make([][]byte, 300)
	for i := range data {
		data[i] = randBytes(r, 28+r.Intn(9), 4)
	}
	counts := CountTable[[]byte](NormalizedLevenshtein{}, data)
	ids := make([]uint32, len(data))
	for i := range ids {
		ids[i] = uint32(i)
	}
	var s Scratch
	var q topk.Queue
	run := func() {
		q.Reset(10)
		Closest[[]byte](NormalizedLevenshtein{}, &s, &q, data[7], data, counts, ids)
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg != 0 {
		t.Errorf("warm Closest allocates %v times per call, want 0", avg)
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
