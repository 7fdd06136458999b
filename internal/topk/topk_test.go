package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randNeighbors(r *rand.Rand, n int) []Neighbor {
	ns := make([]Neighbor, n)
	for i := range ns {
		ns[i] = Neighbor{ID: uint32(i), Dist: r.Float64()}
	}
	r.Shuffle(n, func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
	return ns
}

func TestQueueKeepsKNearest(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		k := 1 + r.Intn(20)
		ns := randNeighbors(r, n)

		var q Queue
		q.Reset(k)
		for _, x := range ns {
			q.Push(x.ID, x.Dist)
		}
		got := q.AppendResults(nil)

		want := append([]Neighbor(nil), ns...)
		ByDist(want)
		if k < len(want) {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("got %d results, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: result %d = %+v, want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestQueueBoundAndWouldAccept(t *testing.T) {
	var q Queue
	q.Reset(2)
	if _, ok := q.Bound(); ok {
		t.Fatal("Bound should not be set on empty queue")
	}
	if !q.WouldAccept(1e18) {
		t.Fatal("non-full queue must accept anything")
	}
	q.Push(1, 5)
	q.Push(2, 3)
	d, ok := q.Bound()
	if !ok || d != 5 {
		t.Fatalf("Bound = %v,%v want 5,true", d, ok)
	}
	if q.WouldAccept(6) {
		t.Fatal("should reject candidate worse than bound")
	}
	if !q.WouldAccept(4) {
		t.Fatal("should accept candidate better than bound")
	}
	q.Push(3, 4)
	res := q.AppendResults(nil)
	if res[0].ID != 2 || res[1].ID != 3 {
		t.Fatalf("results = %+v", res)
	}
}

// TestQueueCanonicalUnderTies asserts the property the scatter-gather merge
// relies on: the kept set is the canonical k smallest by (dist, id)
// regardless of push order, including distance ties straddling the k
// boundary.
func TestQueueCanonicalUnderTies(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(60)
		k := 1 + r.Intn(12)
		// Draw distances from a tiny alphabet so ties are the norm.
		ns := make([]Neighbor, n)
		for i := range ns {
			ns[i] = Neighbor{ID: uint32(i), Dist: float64(r.Intn(4))}
		}
		r.Shuffle(n, func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })

		var q Queue
		q.Reset(k)
		for _, x := range ns {
			q.Push(x.ID, x.Dist)
		}
		got := q.AppendResults(nil)

		want := append([]Neighbor(nil), ns...)
		ByDist(want)
		if k < len(want) {
			want = want[:k]
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (k=%d): result %d = %+v, want %+v (push order must not matter)",
					trial, k, i, got[i], want[i])
			}
		}
	}
}

// TestQueueWouldAcceptTies: a candidate tying the bound must not be
// pre-filtered — Push decides by id.
func TestQueueWouldAcceptTies(t *testing.T) {
	var q Queue
	q.Reset(1)
	q.Push(5, 3)
	if !q.WouldAccept(3) {
		t.Fatal("WouldAccept must report true on a distance tie (id decides)")
	}
	if !q.Push(2, 3) {
		t.Fatal("Push must replace an equal-distance neighbor with a larger id")
	}
	if q.Push(7, 3) {
		t.Fatal("Push must reject an equal-distance neighbor with a larger id")
	}
	if res := q.AppendResults(nil); len(res) != 1 || res[0].ID != 2 {
		t.Fatalf("results = %+v, want the id-2 neighbor", res)
	}
}

func TestQueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reset(0) should panic")
		}
	}()
	var q Queue
	q.Reset(0)
}

func TestMinQueueOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var q MinQueue
	ns := randNeighbors(r, 300)
	for _, x := range ns {
		q.Push(x.ID, x.Dist)
	}
	prev := -1.0
	for q.Len() > 0 {
		x := q.Pop()
		if x.Dist < prev {
			t.Fatalf("MinQueue pops out of order: %v after %v", x.Dist, prev)
		}
		prev = x.Dist
	}
}

// TestMinQueuePeekReset keeps its name from when it also covered the
// deleted Peek.
func TestMinQueuePeekReset(t *testing.T) {
	var q MinQueue
	q.Push(1, 2)
	q.Push(2, 1)
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("Reset did not empty queue")
	}
}

func TestSelectKMatchesFullSort(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := r.Intn(500)
		k := r.Intn(n + 10)
		ns := randNeighbors(r, n)

		want := append([]Neighbor(nil), ns...)
		ByDist(want)
		if k < len(want) {
			want = want[:k]
		}

		got := SelectK(ns, k)
		if len(got) != len(want) {
			t.Fatalf("trial %d: len(got)=%d want %d (n=%d k=%d)", trial, len(got), len(want), n, k)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got[%d]=%+v want %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestSelectKDuplicateDistances(t *testing.T) {
	// All-equal distances: tie-break by ID must make the result exactly
	// the k smallest IDs.
	ns := make([]Neighbor, 100)
	for i := range ns {
		ns[i] = Neighbor{ID: uint32(99 - i), Dist: 1.0}
	}
	got := SelectK(ns, 10)
	for i, x := range got {
		if x.ID != uint32(i) {
			t.Fatalf("tie-breaking broken: got[%d].ID=%d", i, x.ID)
		}
	}
}

func TestSelectKEdgeCases(t *testing.T) {
	if got := SelectK(nil, 5); len(got) != 0 {
		t.Fatalf("SelectK(nil) = %v", got)
	}
	if got := SelectK([]Neighbor{{1, 1}}, 0); len(got) != 0 {
		t.Fatalf("SelectK(...,0) = %v", got)
	}
	one := []Neighbor{{ID: 7, Dist: 3}}
	if got := SelectK(one, 5); len(got) != 1 || got[0].ID != 7 {
		t.Fatalf("SelectK single = %v", got)
	}
}

func TestQuickSelectProperty(t *testing.T) {
	// Property: after SelectK, every retained element <= every discarded one.
	f := func(dists []float64, kRaw uint8) bool {
		ns := make([]Neighbor, len(dists))
		for i, d := range dists {
			ns[i] = Neighbor{ID: uint32(i), Dist: d}
		}
		k := int(kRaw)
		if k > len(ns) {
			k = len(ns)
		}
		cp := append([]Neighbor(nil), ns...)
		got := SelectK(cp, k)
		if len(got) != k {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return less(got[i], got[j]) }) {
			return false
		}
		kept := make(map[uint32]bool, k)
		var worst Neighbor
		for i, x := range got {
			kept[x.ID] = true
			if i == 0 || less(worst, x) {
				worst = x
			}
		}
		for _, x := range ns {
			if !kept[x.ID] && k > 0 && less(x, worst) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSelectK(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	ns := randNeighbors(r, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := append([]Neighbor(nil), ns...)
		SelectK(cp, 100)
	}
}

func TestQueueResetReuse(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var q Queue
	q.Reset(5)
	for round := 0; round < 4; round++ {
		k := 3 + round // vary k across rounds; the queue must follow
		q.Reset(k)
		if q.K() != k || q.Len() != 0 {
			t.Fatalf("round %d: after Reset, K=%d Len=%d, want K=%d Len=0", round, q.K(), q.Len(), k)
		}
		ns := randNeighbors(r, 50)
		for _, x := range ns {
			q.Push(x.ID, x.Dist)
		}
		got := q.AppendResults(nil)
		want := append([]Neighbor(nil), ns...)
		want = SelectK(want, k)
		if len(got) != len(want) {
			t.Fatalf("round %d: got %d results, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: result %d = %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
}

func TestQueueAppendResults(t *testing.T) {
	var q Queue
	q.Reset(3)
	q.Push(4, 4.0)
	q.Push(2, 2.0)
	q.Push(9, 9.0)
	q.Push(1, 1.0) // evicts 9
	sentinel := Neighbor{ID: 77, Dist: -7}
	dst := []Neighbor{sentinel}
	dst = q.AppendResults(dst)
	if q.Len() != 0 {
		t.Fatalf("queue not drained: Len=%d", q.Len())
	}
	want := []Neighbor{sentinel, {ID: 1, Dist: 1}, {ID: 2, Dist: 2}, {ID: 4, Dist: 4}}
	if len(dst) != len(want) {
		t.Fatalf("got %d results, want %d", len(dst), len(want))
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("result %d = %+v, want %+v", i, dst[i], want[i])
		}
	}
}

// TestHotPathPrimitivesDoNotAllocate guards the allocation-freedom of the
// primitives every Search hot path leans on: ByDist, SelectK, and a warm
// Reset/Push/AppendResults queue cycle.
func TestHotPathPrimitivesDoNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ns := randNeighbors(r, 2000)
	buf := make([]Neighbor, len(ns))
	if avg := testing.AllocsPerRun(20, func() {
		copy(buf, ns)
		ByDist(buf)
	}); avg != 0 {
		t.Errorf("ByDist allocates %v times per run", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		copy(buf, ns)
		SelectK(buf, 50)
	}); avg != 0 {
		t.Errorf("SelectK allocates %v times per run", avg)
	}
	var q Queue
	q.Reset(10)
	dst := make([]Neighbor, 0, 16)
	if avg := testing.AllocsPerRun(20, func() {
		q.Reset(10)
		for _, x := range ns[:200] {
			q.Push(x.ID, x.Dist)
		}
		dst = q.AppendResults(dst[:0])
	}); avg != 0 {
		t.Errorf("queue Reset/Push/AppendResults cycle allocates %v times per run", avg)
	}
}
