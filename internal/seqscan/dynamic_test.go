package seqscan

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/space"
)

func TestAddFindsNewPoint(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := randData(r, 50, 4)
	s := New[[]float32](space.L2{}, data)
	x := []float32{100, 100, 100, 100}
	id := s.Add(x)
	if id != 50 {
		t.Fatalf("Add returned id %d, want 50", id)
	}
	if s.Len() != 51 || s.Live() != 51 {
		t.Fatalf("Len=%d Live=%d after Add", s.Len(), s.Live())
	}
	res := s.Search(x, 1)
	if len(res) != 1 || res[0].ID != id || res[0].Dist != 0 {
		t.Fatalf("added point not nearest to itself: %+v", res)
	}
}

func TestAddMatchesFreshScanner(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	data := randData(r, 80, 6)
	extra := randData(r, 20, 6)
	grown := New[[]float32](space.L2{}, append([][]float32(nil), data...))
	for _, x := range extra {
		grown.Add(x)
	}
	flat := New[[]float32](space.L2{}, append(append([][]float32(nil), data...), extra...))
	for trial := 0; trial < 10; trial++ {
		q := randData(r, 1, 6)[0]
		a, b := grown.Search(q, 10), flat.Search(q, 10)
		if len(a) != len(b) {
			t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d pos %d: %+v vs %+v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestDeleteHidesPoint(t *testing.T) {
	data := [][]float32{{0}, {1}, {2}, {5}}
	s := New[[]float32](space.L2{}, data)
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	if !s.Deleted(0) || s.Deleted(1) {
		t.Fatal("Deleted() wrong")
	}
	if s.Live() != 3 {
		t.Fatalf("Live = %d, want 3", s.Live())
	}
	res := s.Search([]float32{0}, 4)
	if len(res) != 3 {
		t.Fatalf("got %d results, want 3", len(res))
	}
	for _, n := range res {
		if n.ID == 0 {
			t.Fatal("deleted id returned by Search")
		}
	}
	rng := s.RangeSearch([]float32{0}, 1.5)
	if len(rng) != 1 || rng[0].ID != 1 {
		t.Fatalf("RangeSearch returned deleted point: %+v", rng)
	}
}

func TestDeleteUnknownID(t *testing.T) {
	s := New[[]float32](space.L2{}, [][]float32{{0}})
	if err := s.Delete(7); err == nil {
		t.Fatal("Delete of out-of-range id succeeded")
	}
}

func TestAddThenDelete(t *testing.T) {
	s := New[[]float32](space.L2{}, [][]float32{{0}, {1}})
	id := s.Add([]float32{2})
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if !s.Deleted(id) {
		t.Fatal("Deleted() does not report the tombstoned added id")
	}
	if s.Live() != 2 {
		t.Fatalf("Live = %d, want 2", s.Live())
	}
	res := s.Search([]float32{2}, 3)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
}

func TestTombstonesRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	data := randData(r, 30, 3)
	s := New[[]float32](space.L2{}, data)
	for _, id := range []uint32{2, 17, 29} {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	cr, err := codec.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load[[]float32](cr, space.L2{}, data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Live() != s.Live() {
		t.Fatalf("Live = %d after load, want %d", loaded.Live(), s.Live())
	}
	q := []float32{0, 0, 0}
	a, b := s.Search(q, 30), loaded.Search(q, 30)
	if len(a) != len(b) {
		t.Fatalf("result lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pos %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestTombstoneOutOfRangeRejected(t *testing.T) {
	data := [][]float32{{0}, {1}}
	s := New[[]float32](space.L2{}, data)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the blob: a valid save has an empty tombstone section; hand-
	// write one whose tombstone id is out of range instead.
	var forged bytes.Buffer
	cw := codec.NewWriter(&forged, codec.KindSeqScan, space.L2{}.Name(), len(data))
	cw.U32s([]uint32{9})
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cr, err := codec.NewReader(bytes.NewReader(forged.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load[[]float32](cr, space.L2{}, data); err == nil {
		t.Fatal("out-of-range tombstone id loaded without error")
	}
}
