package index_test

import (
	"testing"

	"repro/internal/index"
	"repro/internal/topk"
)

// fixed answers every query with the same local ids 0, 1, 2.
type fixed struct{}

func (fixed) Search(q int, k int) []topk.Neighbor {
	return fixed{}.SearchAppend(nil, q, index.Options{K: k})
}

func (fixed) SearchAppend(dst []topk.Neighbor, _ int, _ index.Options) []topk.Neighbor {
	return append(dst, topk.Neighbor{ID: 0, Dist: 1}, topk.Neighbor{ID: 1, Dist: 2}, topk.Neighbor{ID: 2, Dist: 3})
}

func (fixed) Name() string { return "fixed" }

// TestSubsetTranslatesAppendedRange: a Subset maps the ids it appends and
// leaves dst's prefix alone — a prefix id translated again would read a
// wrong corpus id (or run off the map).
func TestSubsetTranslatesAppendedRange(t *testing.T) {
	sub := index.Subset[int]{Index: fixed{}, IDs: []uint32{10, 20, 30}}
	prefix := topk.Neighbor{ID: 1, Dist: 0}
	got := sub.SearchAppend([]topk.Neighbor{prefix}, 0, index.Options{K: 3})
	want := []topk.Neighbor{prefix, {ID: 10, Dist: 1}, {ID: 20, Dist: 2}, {ID: 30, Dist: 3}}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	if s := sub.Search(0, 3); len(s) != 3 || s[0].ID != 10 || s[2].ID != 30 {
		t.Errorf("Search = %v, want corpus ids 10, 20, 30", s)
	}
	if sub.Name() != "fixed" {
		t.Errorf("Name = %q, want the inner index's", sub.Name())
	}
	if s := (index.Subset[int]{Index: fixed{}}).Search(0, 3); s[0].ID != 0 || s[2].ID != 2 {
		t.Errorf("nil IDs: Search = %v, want ids unchanged", s)
	}
}

// TestSubsetSearchAppendZeroAllocs: translation costs a warm query nothing.
func TestSubsetSearchAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; guard runs in the plain test job")
	}
	sub := index.Subset[int]{Index: fixed{}, IDs: []uint32{10, 20, 30}}
	dst := make([]topk.Neighbor, 0, 3)
	opts := index.Options{K: 3}
	if got := testing.AllocsPerRun(50, func() {
		dst = sub.SearchAppend(dst[:0], 0, opts)
	}); got != 0 {
		t.Errorf("warm Subset.SearchAppend allocates %v/op, want 0", got)
	}
}
