package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// refScanCount is the ScanCount the posting bitmaps replaced, kept as the
// oracle. refCounts merges the selected pivots' ascending id lists into one
// counter per id; keep returns, ascending, the ids counted at least t times
// (the counter had to *reach* t, so t < 1 keeps nothing).
type refScanCount []int

func refCounts(n int, lists [][]uint32, pivots []int32) refScanCount {
	counts := make(refScanCount, n)
	for _, p := range pivots {
		for _, id := range lists[p] {
			counts[id]++
		}
	}
	return counts
}

func (counts refScanCount) keep(t int) (ids []uint32) {
	for id, c := range counts {
		if t >= 1 && c >= t {
			ids = append(ids, uint32(id))
		}
	}
	return ids
}

// scanFixture returns a NAPP shell — posting bitmaps over n ids and m pivots,
// no pivots or space, so only scan may be called — next to the same postings
// as lists. Bitmaps are grown bit by bit, so they end at their last posting
// and the scan has to read them as zero past it; a tenth are empty.
func scanFixture(r *rand.Rand, n, m int) (*NAPP[struct{}], [][]uint32) {
	na := &NAPP[struct{}]{data: make([]struct{}, n), bitmaps: make([][]uint64, m)}
	lists := make([][]uint32, m)
	for p := range lists {
		density := r.Float64() * 0.7
		if r.Intn(10) == 0 {
			density = 0
		}
		for id := 0; id < n; id++ {
			if r.Float64() < density {
				lists[p] = append(lists[p], uint32(id))
				na.bitmaps[p] = setBit(na.bitmaps[p], uint32(id))
			}
		}
	}
	return na, lists
}

// setBit sets bit id of bitmap b, growing it to reach the bit.
func setBit(b []uint64, id uint32) []uint64 {
	if w := int(id >> 6); w >= len(b) {
		b = append(b, make([]uint64, w+1-len(b))...)
	}
	b[id>>6] |= 1 << (id & 63)
	return b
}

// checkScan compares one scored scan with the oracle: same ids in ascending
// order, and the shared-pivot count of each read back off the planes.
func checkScan(t *testing.T, na *NAPP[struct{}], counts refScanCount, pivots []int32, minShared int) {
	t.Helper()
	want := counts.keep(minShared)
	var s nappScratch
	na.scan(&s, pivots, minShared, true)
	if !slices.Equal(s.cands, want) {
		t.Fatalf("n=%d ms=%d t=%d: scan = %v, ScanCount = %v", len(na.data), len(pivots), minShared, s.cands, want)
	}
	if len(s.sel) != len(want) {
		t.Fatalf("n=%d ms=%d t=%d: %d scores for %d candidates", len(na.data), len(pivots), minShared, len(s.sel), len(want))
	}
	for i, c := range s.sel {
		if c.ID != want[i] || c.Dist != -float64(counts[c.ID]) {
			t.Fatalf("n=%d ms=%d t=%d: scored candidate %d = %+v, want id %d shared %d",
				len(na.data), len(pivots), minShared, i, c, want[i], counts[want[i]])
		}
	}
	na.scan(&s, pivots, minShared, false)
	if !slices.Equal(s.cands, want) || len(s.sel) != 0 {
		t.Fatalf("n=%d ms=%d t=%d: unscored scan = %v (%d scores), ScanCount = %v",
			len(na.data), len(pivots), minShared, s.cands, len(s.sel), want)
	}
}

// TestScanMatchesScanCount is the kernel's differential test: over every
// shape that exercises a different path — n around word and chunk
// boundaries, ms below, at and above the 16-input block, up to the 255 cap —
// and every threshold, the bit-sliced scan selects exactly the ids the
// list-merging ScanCount selects.
func TestScanMatchesScanCount(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 63, 64, 65, 4097} {
		for _, ms := range []int{1, 2, 3, 15, 16, 17, 31, 32, 33, 64, 255} {
			na, lists := scanFixture(r, n, ms+3)
			pivots := make([]int32, 0, ms)
			for _, p := range r.Perm(ms + 3)[:ms] {
				pivots = append(pivots, int32(p))
			}
			counts := refCounts(n, lists, pivots)
			for minShared := 1; minShared <= ms+1; minShared++ {
				checkScan(t, na, counts, pivots, minShared)
			}
		}
	}
}

// TestAdd16AVX2MatchesGo holds the AVX2 block to add16, its Go oracle, over
// whole plane sets: random planes and input windows at 5–8 planes in use
// (add16 runs from ms = 16, so at least 5), and all-ones planes and inputs,
// whose weight-16 carry ripples through every plane in use and out of the
// top one. The planes above those in use must be left as they were.
func TestAdd16AVX2MatchesGo(t *testing.T) {
	if !vecmath.AVX2() {
		t.Skip("this CPU has no AVX2")
	}
	r := rand.New(rand.NewSource(50))
	var ins [16]scanWindow
	var in [16]*scanWindow
	for i := range in {
		in[i] = &ins[i]
	}
	check := func(pl countPlanes, nplanes int) {
		t.Helper()
		want, got := pl, pl
		want.add16(&in, nplanes)
		add16AVX2(&got, &in, nplanes)
		if got != want {
			t.Fatalf("nplanes=%d planes=%x in=%x: add16AVX2 = %x, add16 = %x", nplanes, pl, ins, got, want)
		}
	}
	for nplanes := 5; nplanes <= scanPlanes; nplanes++ {
		for range 200 {
			var pl countPlanes
			for p := range pl {
				for k := range pl[p] {
					pl[p][k] = r.Uint64()
				}
			}
			for i := range ins {
				for k := range ins[i] {
					ins[i][k] = r.Uint64()
				}
			}
			check(pl, nplanes)
		}
		var ones countPlanes
		for p := range ones {
			for k := range ones[p] {
				ones[p][k] = ^uint64(0)
			}
		}
		for i := range ins {
			ins[i] = ones[0]
		}
		check(ones, nplanes)
		check(countPlanes{}, nplanes)
	}
}

// TestNAPPMinSharedAboveSearchWidth pins the edge the byte counters used to
// get right by accident: a per-query t has no upper bound, and t > ms must
// select nothing — not wrap into some smaller threshold of the 8-plane
// comparator.
func TestNAPPMinSharedAboveSearchWidth(t *testing.T) {
	db, queries := queriesFrom(clustered(46, 1030, 8), 30)
	na, err := NewNAPP[[]float32](space.L2{}, db, NAPPOptions{
		NumPivots: 64, NumPivotIndex: 32, NumPivotSearch: 32, MinShared: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		t     int
		empty bool
	}{
		{1, false}, {22, false}, {32, false},
		{33, true}, {64, true}, {255, true}, {256, true}, {257, true}, {288, true}, {1 << 20, true}, {-3, true},
	} {
		found := 0
		for _, q := range append(queries, db[:5]...) {
			found += len(na.SearchAppend(nil, q, index.Options{K: 10, Params: index.Params{MinShared: tc.t}}))
		}
		if (found == 0) != tc.empty {
			t.Errorf("t=%d over ms=32: %d results, want empty=%v", tc.t, found, tc.empty)
		}
	}
}

// listOracle answers NAPP queries the way the index did before the bitmaps:
// posting lists built from each point's fully sorted pivot order, merged
// by refScanCount, capped by (shared desc, id asc), refined exhaustively.
type listOracle struct {
	na *NAPP[[]float32]
}

func (o listOracle) search(q []float32, k, minShared int) []topk.Neighbor {
	na := o.na
	lists := make([][]uint32, na.pivots.M())
	for id, x := range na.data {
		for _, p := range na.pivots.Order(x, nil)[:na.opts.NumPivotIndex] {
			lists[p] = append(lists[p], uint32(id))
		}
	}
	counts := refCounts(len(na.data), lists, na.pivots.Order(q, nil)[:na.opts.NumPivotSearch])
	ids := counts.keep(minShared)
	if max := na.opts.MaxCandidates; max > 0 && len(ids) > max {
		slices.SortFunc(ids, func(a, b uint32) int {
			return cmp.Or(cmp.Compare(counts[b], counts[a]), cmp.Compare(a, b))
		})
		ids = ids[:max]
	}
	var res []topk.Neighbor
	for _, id := range ids {
		res = append(res, topk.Neighbor{ID: id, Dist: na.sp.Distance(na.data[id], q)})
	}
	return topk.SelectK(res, k)
}

// TestNAPPMatchesListScanCount drives one index over four bitmap words
// through build, per-query thresholds, posting bitmaps that end before
// ⌈N/64⌉ words, save and load, and after every step requires the answers of
// the list-merging oracle, with and without the MaxCandidates cut.
func TestNAPPMatchesListScanCount(t *testing.T) {
	all, queries := queriesFrom(clustered(47, 200+12, 6), 12)
	for _, maxCands := range []int{0, 7} {
		t.Run(fmt.Sprintf("max%d", maxCands), func(t *testing.T) {
			na, err := NewNAPP[[]float32](space.L2{}, slices.Clone(all), NAPPOptions{
				NumPivots: 24, NumPivotIndex: 6, NumPivotSearch: 9, MinShared: 2, MaxCandidates: maxCands, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			o := listOracle{na: na}
			check := func(stage string) {
				t.Helper()
				for qi, q := range queries {
					for minShared := 1; minShared <= 7; minShared++ {
						got := o.na.SearchAppend(nil, q, index.Options{K: 5, Params: index.Params{MinShared: minShared}})
						if want := o.search(q, 5, minShared); !slices.Equal(got, want) {
							t.Fatalf("%s, query %d, t=%d:\n got %v\nwant %v", stage, qi, minShared, got, want)
						}
					}
				}
			}
			check("built")
			// Cut each bitmap after its last posting word: the scan must
			// read the missing words as zero.
			cut := 0
			for p, b := range na.bitmaps {
				for len(b) > 0 && b[len(b)-1] == 0 {
					b = b[:len(b)-1]
				}
				if len(b) < len(na.bitmaps[p]) {
					cut++
				}
				na.bitmaps[p] = b
			}
			if cut == 0 {
				t.Fatal("no posting bitmap ends before its last word; the fixture no longer covers short bitmaps")
			}
			check("bitmaps cut short")

			var blob bytes.Buffer
			if err := na.Save(&blob); err != nil {
				t.Fatal(err)
			}
			cr, err := codec.NewReader(bytes.NewReader(blob.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadNAPP[[]float32](cr, space.L2{}, na.data)
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := loaded.Save(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob.Bytes(), again.Bytes()) {
				t.Fatal("Save(Load(Save(x))) differs from Save(x)")
			}
			o.na = loaded
			check("loaded")
		})
	}
}

// FuzzNAPPScan lets the fuzzer pick the shape: the first bytes choose n, ms
// and t, the rest are the posting bits. Whatever it picks, the kernel and
// the list-merging ScanCount agree.
func FuzzNAPPScan(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0xff})
	f.Add([]byte{64, 16, 3, 0xaa, 0x55, 0xf0, 0x0f, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{200, 33, 20, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe})
	f.Add(bytes.Repeat([]byte{0xb7, 0xff, 0x09}, 60))
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		n := 1 + int(in[0])*3 // up to 766 ids: 12 words, two chunks
		ms := 1 + int(in[1])%255
		minShared := int(in[2]) + int(in[3]>>6) - 1 // -1..257
		bits := in[3:]
		bit := func(i int) bool { b := bits[i/8%len(bits)] >> (i % 8); return b&1 == 1 }
		na := &NAPP[struct{}]{data: make([]struct{}, n), bitmaps: make([][]uint64, ms)}
		lists := make([][]uint32, ms)
		pivots := make([]int32, ms)
		for p := range lists {
			pivots[p] = int32(p)
			for id := 0; id < n; id++ {
				// Two bits per posting thin the lists to a quarter.
				if i := (p*n + id) * 2; bit(i) && bit(i+1) {
					lists[p] = append(lists[p], uint32(id))
					na.bitmaps[p] = setBit(na.bitmaps[p], uint32(id))
				}
			}
		}
		checkScan(t, na, refCounts(n, lists, pivots), pivots, minShared)
	})
}

// BenchmarkScanCount is NAPP's filter kernel alone at permbench's SIFT
// shape: the bitmaps of 40k points over m=512 pivots at mi=32, and per query
// the bitmaps of its ms=32 closest pivots scanned at t=22, unscored, cycling
// through 64 held-out queries. cands/op is the mean candidate count, the same
// on every arm.
func BenchmarkScanCount(b *testing.B) {
	const n, queries, ms, minShared = 40000, 64, 32, 22
	all := dataset.SIFT(7, n+queries)
	na, err := NewNAPP[[]float32](space.L2{}, all[:n], NAPPOptions{
		NumPivots: 512, NumPivotIndex: 32, NumPivotSearch: ms, MinShared: minShared, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	var s nappScratch
	pivots := make([][]int32, queries)
	for i, q := range all[n:] {
		pivots[i] = slices.Clone(na.pivots.ClosestWith(&s.perm, q, ms))
	}
	cands, i := 0, 0
	b.ReportAllocs()
	for b.Loop() {
		na.scan(&s, pivots[i%queries], minShared, false)
		cands += len(s.cands)
		i++
	}
	b.ReportMetric(float64(cands)/float64(i), "cands/op")
}
