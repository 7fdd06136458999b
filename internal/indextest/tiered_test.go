package indextest

// The tiered-identity property suite: an lsm.Tree (mutable memtable +
// sealed tiers + tombstone masking) in front of a base index must answer
// *identically* — ids and distances, ties broken canonically — to a single
// flat exact scan over the same live set, for every registered index kind
// serving as the base.
//
// As in the sharded suite (internal/router), identity holds exactly when
// the base index returns its true top-k, so every kind is parameterized
// for full recall: filter methods run with Gamma=1, NAPP/MI-file index and
// search all pivots, the VP-trees run with a vanishing pruning stretch,
// the graphs search with an exhaustive frontier, and MPLSH hashes
// everything into one bucket. With the base exact, the only thing
// separating tiered from flat answers is the WAL/memtable/seal/tombstone
// machinery — exactly what is under test. The mutation script is chosen to
// force delete-masking across tiers: base objects and long-sealed added
// objects are tombstoned from newer segments.

import (
	"encoding/json"
	"maps"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/lsh"
	"repro/internal/lsm"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/vptree"
)

// tieredKind builds one full-recall-parameterized index kind over an
// arbitrary corpus subset (the tree's base corpus).
type tieredKind[T any] struct {
	kind  string
	build func(data []T) (index.Index[T], error)
}

// tieredFullRecallKinds mirrors the full-recall matrix of the sharded
// suite; see internal/router/local_test.go for the per-kind rationale.
func tieredFullRecallKinds[T any](sp space.Space[T]) []tieredKind[T] {
	return []tieredKind[T]{
		{"seqscan", func(data []T) (index.Index[T], error) {
			return seqscan.New(sp, data), nil
		}},
		{"vptree", func(data []T) (index.Index[T], error) {
			return vptree.New(sp, data, vptree.Options{BucketSize: 8, AlphaLeft: 1e-12, AlphaRight: 1e-12, Seed: kindSeed})
		}},
		{"brute-force-filt", func(data []T) (index.Index[T], error) {
			return core.NewBruteForceFilter(sp, data, core.BruteForceOptions{NumPivots: 16, Gamma: 1, Seed: kindSeed})
		}},
		{"brute-force-filt-bin", func(data []T) (index.Index[T], error) {
			return core.NewBinFilter(sp, data, core.BinFilterOptions{NumPivots: 32, Gamma: 1, Seed: kindSeed})
		}},
		{"brute-force-filt-quant", func(data []T) (index.Index[T], error) {
			return core.NewQuantFilter(sp, data, core.QuantFilterOptions{NumPivots: 32, PrefixLen: 16, Gamma: 1, Seed: kindSeed})
		}},
		{"distvec-filt", func(data []T) (index.Index[T], error) {
			return core.NewDistVecFilter(sp, data, core.BruteForceOptions{NumPivots: 16, Gamma: 1, Seed: kindSeed})
		}},
		{"pp-index", func(data []T) (index.Index[T], error) {
			return core.NewPPIndex(sp, data, core.PPIndexOptions{NumPivots: 16, PrefixLen: 4, Copies: 2, Gamma: 1, Seed: kindSeed})
		}},
		{"mi-file", func(data []T) (index.Index[T], error) {
			return core.NewMIFile(sp, data, core.MIFileOptions{
				NumPivots: 16, NumPivotIndex: 16, NumPivotSearch: 16, Gamma: 1, Seed: kindSeed,
			})
		}},
		{"napp", func(data []T) (index.Index[T], error) {
			return core.NewNAPP(sp, data, core.NAPPOptions{
				NumPivots: 32, NumPivotIndex: 32, MinShared: 1, Seed: kindSeed,
			})
		}},
		{"omedrank", func(data []T) (index.Index[T], error) {
			return core.NewOMEDRANK(sp, data, core.OMEDRANKOptions{NumVoters: 6, Gamma: 1, Seed: kindSeed})
		}},
		{"perm-vptree", func(data []T) (index.Index[T], error) {
			return core.NewPermVPTree(sp, data, core.PermVPTreeOptions{NumPivots: 16, Gamma: 1, Seed: kindSeed})
		}},
		{"sw-graph", func(data []T) (index.Index[T], error) {
			return knngraph.NewSW(sp, data, knngraph.Options{
				NN: 10, EfSearch: len(data), InitAttempts: 4, Seed: kindSeed,
			})
		}},
		{"nndescent-graph", func(data []T) (index.Index[T], error) {
			return knngraph.NewNNDescent(sp, data, knngraph.Options{
				NN: 10, EfSearch: len(data), InitAttempts: 4, Seed: kindSeed,
			})
		}},
	}
}

func tieredDenseKinds(sp space.Space[[]float32]) []tieredKind[[]float32] {
	kinds := tieredFullRecallKinds[[]float32](sp)
	return append(kinds, tieredKind[[]float32]{"mplsh", func(data [][]float32) (index.Index[[]float32], error) {
		m, err := lsh.New(data, lsh.Options{Tables: 1, Hashes: 1, Width: 1e12, Seed: kindSeed})
		if err != nil {
			return nil, err
		}
		return index.Index[[]float32](m), nil
	}})
}

// verifyTieredFlat compares tree answers (through the given base index)
// against a flat exact scan freshly built over the live objects in
// ascending-id order — a monotone id translation, so the flat scan's
// canonical (dist, id) order maps to the tree's global-id order.
func verifyTieredFlat[T any](t *testing.T, sp space.Space[T], tree *lsm.Tree[T], base index.Index[T], live map[uint32]T, probes []T, stage string) {
	t.Helper()
	ids := slices.Sorted(maps.Keys(live))
	objs := make([]T, len(ids))
	for i, id := range ids {
		objs[i] = live[id]
	}
	flat := seqscan.New(sp, objs)
	for _, k := range []int{1, 10, 50, len(ids) + 7} {
		for qi, q := range probes {
			want := flat.Search(q, k)
			got, err := tree.SearchAppend(nil, base, q, index.Options{K: k})
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != len(got) {
				t.Fatalf("%s: query %d k=%d: tiered returned %d results, flat %d", stage, qi, k, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != ids[want[i].ID] || got[i].Dist != want[i].Dist {
					t.Fatalf("%s: query %d k=%d result %d: tiered {id %d, dist %g}, flat {id %d, dist %g}",
						stage, qi, k, i, got[i].ID, got[i].Dist, ids[want[i].ID], want[i].Dist)
				}
			}
		}
	}
}

// testTieredIdentity runs the mutation script for every kind: stream the
// corpus tail through the tree in batches, interleaving deletes of base
// objects, freshly-added objects, and long-sealed objects, with explicit
// flushes and auto-seals producing several tiers (and compaction, with
// MaxTiers 2). enc/dec define the wire payload; the oracle tracks the
// post-roundtrip objects so both sides score exactly the same data.
func testTieredIdentity[T any](t *testing.T, db, queries []T, sp space.Space[T], kinds []tieredKind[T], enc func(T) ([]byte, error), dec func([]byte) (T, error)) {
	t.Helper()
	const baseN = 200
	stream := db[baseN:]
	blobs := make([][]byte, len(stream))
	objs := make([]T, len(stream))
	for i, o := range stream {
		blob, err := enc(o)
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = blob
		objs[i], err = dec(blob)
		if err != nil {
			t.Fatal(err)
		}
	}
	probes := append(append([]T{}, queries...), db[:3]...)

	for _, kb := range kinds {
		t.Run(kb.kind, func(t *testing.T) {
			base, err := kb.build(db[:baseN])
			if err != nil {
				t.Fatal(err)
			}
			tree, err := lsm.Open(lsm.Options[T]{
				Dir: t.TempDir(), Space: sp, BaseN: baseN, Decode: dec,
				MemtableCap: 24, MaxTiers: 2, NoFsync: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tree.Close()

			live := make(map[uint32]T, len(db))
			for i := range baseN {
				live[uint32(i)] = db[i]
			}
			del := func(id uint32) {
				t.Helper()
				if err := tree.Delete(id); err != nil {
					t.Fatalf("delete %d: %v", id, err)
				}
				delete(live, id)
			}
			// delBase tombstones the first live base id at or after the
			// cursor: deterministic, never a double delete.
			baseCursor := uint32(0)
			delBase := func() {
				for {
					if _, ok := live[baseCursor]; ok {
						del(baseCursor)
						return
					}
					baseCursor = (baseCursor + 1) % baseN
				}
			}

			var added []uint32
			for batch := 0; batch*16 < len(stream); batch++ {
				lo, hi := batch*16, min((batch+1)*16, len(stream))
				ids, err := tree.AddBatch(blobs[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				for j, id := range ids {
					live[id] = objs[lo+j]
				}
				added = append(added, ids...)
				// One base object, one just-added (memtable-resident)
				// object, and one early add — sealed into a tier by now,
				// so its tombstone masks across tiers.
				delBase()
				del(ids[0])
				if old := added[(batch*5)%len(added)]; old != ids[0] {
					if _, ok := live[old]; ok {
						del(old)
					}
				}
				baseCursor += 13
				if batch%2 == 1 {
					if _, err := tree.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				if batch == 2 {
					verifyTieredFlat(t, sp, tree, base, live, probes, "mid-stream")
				}
			}
			if _, err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
			// Post-seal churn: every remaining delete targets a tier or
			// the base, never the memtable.
			delBase()
			if _, ok := live[added[1]]; ok {
				del(added[1])
			}
			verifyTieredFlat(t, sp, tree, base, live, probes, "final")

			st := tree.Status()
			if len(st.Tiers) == 0 {
				t.Fatalf("mutation script sealed no tiers: %+v", st)
			}
		})
	}
}

// TestTieredIdentityDense runs the full kind matrix over the dense L2
// corpus.
func TestTieredIdentityDense(t *testing.T) {
	db, queries := DenseCorpus()
	testTieredIdentity(t, db, queries, space.L2{}, tieredDenseKinds(space.L2{}),
		func(v []float32) ([]byte, error) { return json.Marshal(v) },
		func(raw []byte) ([]float32, error) {
			var v []float32
			err := json.Unmarshal(raw, &v)
			return v, err
		})
}

// TestTieredIdentityDNA runs the generic kinds over the byte-string corpus:
// normalized Levenshtein's heavily tied discrete distances stress the
// canonical merge order across memtable, tiers and base.
func TestTieredIdentityDNA(t *testing.T) {
	if testing.Short() {
		t.Skip("dense corpus covers the kind matrix; skipping the tie-stress corpus in -short")
	}
	db, queries := DNACorpus()
	testTieredIdentity(t, db, queries, space.NormalizedLevenshtein{}, tieredFullRecallKinds[[]byte](space.NormalizedLevenshtein{}),
		func(b []byte) ([]byte, error) { return slices.Clone(b), nil },
		func(raw []byte) ([]byte, error) { return slices.Clone(raw), nil })
}

// TestTieredIdentityKL covers the asymmetric KL divergence with the same
// representative kind subset the sharded suite uses. Histograms roundtrip
// through their probability vector; NewHistogram re-floors and
// renormalizes, and the oracle tracks the post-roundtrip object, so the
// tree and the flat scan score identical data even where renormalization
// drifts the floats.
func TestTieredIdentityKL(t *testing.T) {
	if testing.Short() {
		t.Skip("dense corpus covers the kind matrix; skipping the asymmetric corpus in -short")
	}
	db, queries := HistoCorpus()
	all := tieredFullRecallKinds[space.Histogram](space.KLDivergence{})
	keep := map[string]bool{"seqscan": true, "vptree": true, "napp": true, "sw-graph": true, "mi-file": true}
	var kinds []tieredKind[space.Histogram]
	for _, kb := range all {
		if keep[kb.kind] {
			kinds = append(kinds, kb)
		}
	}
	testTieredIdentity(t, db, queries, space.KLDivergence{}, kinds,
		func(h space.Histogram) ([]byte, error) { return json.Marshal(h.P) },
		func(raw []byte) (space.Histogram, error) {
			var p []float32
			if err := json.Unmarshal(raw, &p); err != nil {
				return space.Histogram{}, err
			}
			return space.NewHistogram(p), nil
		})
}
