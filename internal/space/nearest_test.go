package space_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/space"
	"repro/internal/topk"
)

// TestNearestIgnoresCandidateOrder pins Nearest's contract: the k kept
// neighbors are the canonical (distance, id) smallest, so a filter may emit
// its candidates in any order. Short DNA reads under normalised Levenshtein
// take few distinct distances, so the k boundary falls inside a run of ties
// — the case where a first-kept-wins queue would follow the shuffle.
func TestNearestIgnoresCandidateOrder(t *testing.T) {
	sp := space.NormalizedLevenshtein{}
	data := dataset.DNA(5, 400, dataset.DNAOptions{})
	query := data[len(data)-1]
	data = data[:len(data)-1]
	cands := make([]uint32, len(data))
	for i := range cands {
		cands[i] = uint32(i)
	}
	const k = 10
	var s space.Scratch
	want := space.Nearest(sp, &s, nil, query, data, nil, cands, k, nil)
	tied := 0
	for _, x := range data {
		if sp.Distance(x, query) == want[k-1].Dist {
			tied++
		}
	}
	for i := k - 1; i >= 0 && want[i].Dist == want[k-1].Dist; i-- {
		tied--
	}
	if tied == 0 {
		t.Fatal("no tie at the k boundary on this corpus; the property is vacuous")
	}
	// Measured in full (no composition table) and screened alike.
	counts := space.CountTable[[]byte](sp, data)
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		for _, cs := range [][]space.Counts{nil, counts} {
			r.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
			if got := space.Nearest(sp, &s, nil, query, data, cs, cands, k, nil); !slices.Equal(got, want) {
				t.Fatalf("shuffle %d (screened %v):\n got %v\nwant %v", trial, cs != nil, got, want)
			}
		}
	}
}

// TestNearestAppendsAndTraces: Nearest appends after dst's prefix and leaves
// it as it was, answers nothing for no ids, and books every distance it
// measures as a refine distance.
func TestNearestAppendsAndTraces(t *testing.T) {
	sp := space.L2{}
	data := dataset.SIFT(3, 50)
	query := data[0]
	var s space.Scratch
	want := space.Nearest(sp, &s, nil, query, data, nil, s.Every(len(data)), 5, nil)
	prefix := []topk.Neighbor{{ID: 99, Dist: -1}, {ID: 98, Dist: -2}}
	dst := append(make([]topk.Neighbor, 0, 16), prefix...)
	var tr obs.QueryTrace
	got := space.Nearest(sp, &s, dst, query, data, nil, s.Every(len(data)), 5, &tr)
	if !slices.Equal(got[:len(prefix)], prefix) || !slices.Equal(got[len(prefix):], want) {
		t.Fatalf("appended to %v: got %v, want the prefix then %v", prefix, got, want)
	}
	if tr.RefineDistances != int64(len(data)) || tr.RefineNs <= 0 || tr.MergeNs <= 0 {
		t.Errorf("trace %+v, want %d refine distances and both stage times", tr, len(data))
	}
	if got := space.Nearest(sp, &s, prefix, query, data, nil, nil, 5, nil); !slices.Equal(got, prefix) {
		t.Errorf("no ids answered %v, want %v unchanged", got, prefix)
	}
}

// TestEvery: the positions are 0…n-1 whatever length an earlier call asked
// for, and a full scan over them answers what one over explicit ids does.
func TestEvery(t *testing.T) {
	sp := space.L2{}
	data := dataset.SIFT(4, 30)
	for _, c := range []struct{ m, n int }{{30, 10}, {10, 30}, {0, 30}, {30, 0}} {
		var s space.Scratch
		s.Every(c.m)
		ids := s.Every(c.n)
		if len(ids) != c.n {
			t.Fatalf("Every(%d) after Every(%d) has %d ids", c.n, c.m, len(ids))
		}
		for i, id := range ids {
			if id != uint32(i) {
				t.Fatalf("Every(%d) after Every(%d): position %d holds %d", c.n, c.m, i, id)
			}
		}
		explicit := make([]uint32, c.n)
		for i := range explicit {
			explicit[i] = uint32(i)
		}
		var ref space.Scratch
		want := space.Nearest(sp, &ref, nil, data[0], data, nil, explicit, 7, nil)
		if got := space.Nearest(sp, &s, nil, data[0], data, nil, s.Every(c.n), 7, nil); !slices.Equal(got, want) {
			t.Errorf("Every(%d) after Every(%d): %v, explicit ids %v", c.n, c.m, got, want)
		}
	}
}

// TestNearestAllocs: a warm Nearest, traced or not, screened or not, does
// not allocate.
func TestNearestAllocs(t *testing.T) {
	dense := dataset.SIFT(5, 64)
	checkNearestAllocs[[]float32](t, space.L2{}, dense, nil)
	reads := dataset.DNA(5, 64, dataset.DNAOptions{})
	checkNearestAllocs[[]byte](t, space.NormalizedLevenshtein{}, reads, nil)
	checkNearestAllocs(t, space.NormalizedLevenshtein{}, reads, space.CountTable[[]byte](space.NormalizedLevenshtein{}, reads))
}

func checkNearestAllocs[T any](t *testing.T, sp space.Space[T], data []T, counts []space.Counts) {
	t.Helper()
	var s space.Scratch
	var tr obs.QueryTrace
	dst := make([]topk.Neighbor, 0, 10)
	run := func() {
		dst = space.Nearest(sp, &s, dst[:0], data[0], data, counts, s.Every(len(data)), 10, &tr)
		dst = space.Nearest(sp, &s, dst[:0], data[1], data, counts, s.Every(len(data)), 10, nil)
	}
	run()
	if avg := testing.AllocsPerRun(50, run); avg != 0 {
		t.Errorf("%s (screened %v): warm Nearest allocates %v times per run, want 0", sp.Name(), counts != nil, avg)
	}
}
