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
	if s.Len() != 51 {
		t.Fatalf("Len=%d after Add", s.Len())
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
