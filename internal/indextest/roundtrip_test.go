package indextest

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/permutation"
	"repro/internal/persist"
	"repro/internal/space"
)

// TestRoundtrip_Dense asserts, for every index kind, that Save→Load yields
// an index whose searches (and re-serialized bytes, and Stats) are
// identical to the original's, over dense vectors under L2.
func TestRoundtrip_Dense(t *testing.T) {
	db, queries := denseCorpus()
	sp := space.L2{}
	queries = append(queries, db[0])
	for _, kc := range denseKinds(sp, db) {
		t.Run(kc.kind, func(t *testing.T) {
			Roundtrip(t, space.Space[[]float32](sp), db, queries, kc.build)
		})
	}
}

// TestRoundtrip_DNA repeats the persistence property over byte strings.
func TestRoundtrip_DNA(t *testing.T) {
	if testing.Short() {
		t.Skip("levenshtein roundtrip is the slow half of the suite")
	}
	db, queries := dnaCorpus()
	sp := space.NormalizedLevenshtein{}
	for _, kc := range genericKinds[[]byte](sp, db) {
		t.Run(kc.kind, func(t *testing.T) {
			Roundtrip(t, space.Space[[]byte](sp), db, queries, kc.build)
		})
	}
}

// TestRoundtrip_Histogram repeats the persistence property under the
// asymmetric KL-divergence.
func TestRoundtrip_Histogram(t *testing.T) {
	db, queries := histoCorpus()
	sp := space.KLDivergence{}
	for _, kc := range genericKinds[space.Histogram](sp, db) {
		t.Run(kc.kind, func(t *testing.T) {
			Roundtrip(t, space.Space[space.Histogram](sp), db, queries, kc.build)
		})
	}
}

// TestRoundtrip_RejectsCorrupt asserts truncated and bit-flipped blobs are
// rejected with errors (never panics) for a representative structured kind.
func TestRoundtrip_RejectsCorrupt(t *testing.T) {
	db, _ := denseCorpus()
	sp := space.L2{}
	for _, kc := range denseKinds(sp, db) {
		t.Run(kc.kind, func(t *testing.T) {
			RoundtripRejectsCorrupt(t, space.Space[[]float32](sp), db, kc.build)
		})
	}
}

// TestLoad_WrongContext asserts the header checks catch the three ways a
// valid file can be paired with the wrong runtime state: different space,
// different data-set size, and a kind/type mismatch for the dense-only LSH.
func TestLoad_WrongContext(t *testing.T) {
	db, _ := denseCorpus()
	kinds := denseKinds(space.L2{}, db)
	var blob bytes.Buffer
	idx, err := kinds[0].build() // brute-force-filt
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.Save(&blob, idx); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.Load(bytes.NewReader(blob.Bytes()), space.L1{}, db); err == nil {
		t.Error("Load accepted an L2-built index under L1")
	}
	if _, err := persist.Load(bytes.NewReader(blob.Bytes()), space.L2{}, db[:len(db)-1]); err == nil {
		t.Error("Load accepted a data set one point shorter than recorded")
	}

	// An MPLSH file loaded under a non-dense object type must fail with a
	// type error, not a panic.
	var lshBlob bytes.Buffer
	lshIdx, err := kinds[len(kinds)-1].build() // mplsh
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.Save(&lshBlob, lshIdx); err != nil {
		t.Fatal(err)
	}
	strings := make([][]byte, len(db))
	for i := range strings {
		strings[i] = []byte{byte(i)}
	}
	if _, err := persist.Load(bytes.NewReader(lshBlob.Bytes()), space.NormalizedLevenshtein{}, strings); err == nil {
		t.Error("Load reconstructed an mplsh index over byte strings")
	}
	// Same object type, wrong metric: must also be rejected (mplsh would
	// otherwise report L2 distances under an L1 caller).
	if _, err := persist.Load(bytes.NewReader(lshBlob.Bytes()), space.L1{}, db); err == nil {
		t.Error("Load reconstructed an L2-only mplsh index under L1")
	}
}

// TestSave_ExplicitPivotsNotPersistable pins down the documented
// limitation: indexes over caller-supplied pivot objects have no data ids
// to reference and must refuse to serialize (rather than write a file that
// could never be loaded).
func TestSave_ExplicitPivotsNotPersistable(t *testing.T) {
	db, _ := denseCorpus()
	sp := space.L2{}
	pivots := [][]float32{db[0], db[1], db[2], db[3]}
	pv, err := permutation.NewPivots[[]float32](sp, pivots)
	if err != nil {
		t.Fatal(err)
	}
	na, err := core.NewNAPPWithPivots[[]float32](sp, db, pv, core.NAPPOptions{MinShared: 1})
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := persist.Save[[]float32](&blob, na); !errors.Is(err, codec.ErrNotPersistable) {
		t.Errorf("Save of an explicit-pivot index: got %v, want ErrNotPersistable", err)
	}
}

// TestKindMatrixCoversRegistry fails when a new kind enters the registry
// without joining this suite's build matrix, keeping "every registered
// index kind passes conformance and roundtrip" true by construction.
func TestKindMatrixCoversRegistry(t *testing.T) {
	db, _ := denseCorpus()
	covered := map[string]bool{}
	for _, kc := range denseKinds(space.L2{}, db) {
		covered[kc.kind] = true
	}
	for _, kind := range codec.Kinds() {
		if !covered[kind] {
			t.Errorf("registry kind %q has no conformance/roundtrip coverage in this package", kind)
		}
	}
	// distvec-filt is the one suite member outside the paper's method
	// name space; every other matrix entry must be a registry kind.
	for kind := range covered {
		found := false
		for _, k := range codec.Kinds() {
			if k == kind {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("suite kind %q is not in the codec registry", kind)
		}
	}
}
