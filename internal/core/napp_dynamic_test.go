package core

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/space"
	"repro/internal/topk"
)

func TestNAPPAddFindsNewPoint(t *testing.T) {
	db, _ := queriesFrom(clustered(40, 1050, 8), 50)
	na, err := NewNAPP[[]float32](space.L2{}, db, NAPPOptions{
		NumPivots: 128, NumPivotIndex: 16, MinShared: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Insert a point far away from everything; querying near it must
	// return the new id first.
	far := make([]float32, 8)
	for i := range far {
		far[i] = 1e4
	}
	id := na.Add(far)
	if int(id) != len(db) {
		t.Fatalf("new id = %d, want %d", id, len(db))
	}
	res := na.Search(far, 3)
	if len(res) == 0 || res[0].ID != id || res[0].Dist != 0 {
		t.Fatalf("added point not found: %+v", res)
	}
	if na.Live() != len(db)+1 {
		t.Fatalf("Live = %d", na.Live())
	}
}

func TestNAPPAddManyMatchesFreshBuild(t *testing.T) {
	// Recall after incremental insertion must be comparable to recall of
	// an index built over the full set with the same pivots.
	all, queries := queriesFrom(clustered(41, 1550, 8), 50)
	half := all[:1000]
	na, err := NewNAPP[[]float32](space.L2{}, half, NAPPOptions{
		NumPivots: 128, NumPivotIndex: 16, MinShared: 1, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range all[1000:] {
		na.Add(x)
	}
	rec := recallOf[[]float32](t, space.L2{}, all, na, queries, 10)
	if rec < 0.8 {
		t.Fatalf("recall after incremental adds %.3f < 0.8", rec)
	}
}

func TestNAPPDeleteHidesPoint(t *testing.T) {
	db, _ := queriesFrom(clustered(42, 520, 8), 20)
	na, err := NewNAPP[[]float32](space.L2{}, db, NAPPOptions{
		NumPivots: 64, NumPivotIndex: 16, MinShared: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := db[7]
	before := na.Search(q, 1)
	if len(before) != 1 || before[0].ID != 7 {
		t.Fatalf("self not found before delete: %+v", before)
	}
	if err := na.Delete(7); err != nil {
		t.Fatal(err)
	}
	if !na.Deleted(7) {
		t.Fatal("Deleted(7) = false")
	}
	after := na.Search(q, 5)
	for _, nb := range after {
		if nb.ID == 7 {
			t.Fatal("deleted id still returned")
		}
	}
	if na.Live() != len(db)-1 {
		t.Fatalf("Live = %d", na.Live())
	}
	if err := na.Delete(uint32(len(db) + 5)); err == nil {
		t.Fatal("deleting unknown id succeeded")
	}
}

func TestNAPPCompact(t *testing.T) {
	db, _ := queriesFrom(clustered(43, 520, 8), 20)
	na, err := NewNAPP[[]float32](space.L2{}, db, NAPPOptions{
		NumPivots: 64, NumPivotIndex: 16, MinShared: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	removed := map[uint32]bool{}
	for i := 0; i < 100; i++ {
		id := uint32(r.Intn(len(db)))
		if !removed[id] {
			removed[id] = true
			if err := na.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	cellsBefore := postingCells(na)
	na.Compact()
	cellsAfter := postingCells(na)
	if cellsAfter >= cellsBefore {
		t.Fatalf("compaction did not shrink postings: %d -> %d", cellsBefore, cellsAfter)
	}
	// Tombstone bookkeeping survives compaction.
	for id := range removed {
		if !na.Deleted(id) {
			t.Fatalf("Deleted(%d) lost after Compact", id)
		}
	}
	// Deleted points never come back.
	for i := 0; i < 10; i++ {
		q := db[r.Intn(len(db))]
		for _, nb := range na.Search(q, 10) {
			if removed[nb.ID] {
				t.Fatal("compacted index returned deleted id")
			}
		}
	}
	// Compact on a clean index is a no-op.
	na2, _ := NewNAPP[[]float32](space.L2{}, db, NAPPOptions{NumPivots: 64, Seed: 4})
	before := postingCells(na2)
	na2.Compact()
	if postingCells(na2) != before {
		t.Fatal("Compact on clean index changed postings")
	}
}

func postingCells[T any](na *NAPP[T]) int {
	var cells int
	for _, b := range na.bitmaps {
		for _, word := range b {
			cells += bits.OnesCount64(word)
		}
	}
	return cells
}

func TestNAPPWarmScratchSurvivesMutation(t *testing.T) {
	// Query scratch pooled inside the index is warmed under one index
	// generation (arenas sized to the data set) and reused after Add/Delete.
	// Searches through it must still see every mutation and can never index
	// scratch out of range.
	db, queries := queriesFrom(clustered(45, 820, 8), 20)
	na, err := NewNAPP[[]float32](space.L2{}, db, NAPPOptions{
		NumPivots: 64, NumPivotIndex: 16, MinShared: 1, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]topk.Neighbor, 0, 8)
	for _, q := range queries {
		dst = na.SearchAppend(dst[:0], q, index.Options{K: 5}) // warm under the original generation
	}

	far := []float32{2e4, 2e4, 2e4, 2e4, 2e4, 2e4, 2e4, 2e4}
	id := na.Add(far)
	res := na.SearchAppend(dst[:0], far, index.Options{K: 3})
	if len(res) == 0 || res[0].ID != id || res[0].Dist != 0 {
		t.Fatalf("warm scratch missed the added point: %+v", res)
	}

	if err := na.Delete(id); err != nil {
		t.Fatal(err)
	}
	for _, nb := range na.SearchAppend(dst[:0], far, index.Options{K: 5}) {
		if nb.ID == id {
			t.Fatal("warm scratch returned a deleted id")
		}
	}
}

func TestNAPPAddThenDeleteRoundTrip(t *testing.T) {
	db, _ := queriesFrom(clustered(44, 320, 8), 20)
	na, err := NewNAPP[[]float32](space.L2{}, db, NAPPOptions{
		NumPivots: 64, NumPivotIndex: 8, MinShared: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := []float32{500, 500, 500, 500, 500, 500, 500, 500}
	id := na.Add(x)
	if err := na.Delete(id); err != nil {
		t.Fatal(err)
	}
	res := na.Search(x, 3)
	for _, nb := range res {
		if nb.ID == id {
			t.Fatal("add-then-delete point still visible")
		}
	}
	na.Compact()
	if na.Live() != len(db) {
		t.Fatalf("Live = %d, want %d", na.Live(), len(db))
	}
}
