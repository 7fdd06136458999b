package router_test

// The sharded-identity property suite: over every registered index kind, a
// Local scatter-gather across S hash-partitioned shards must answer
// *identically* (ids and distances, ties broken canonically) to one
// unsharded index over the full corpus.
//
// Identity holds exactly when each shard returns its shard-local true
// top-k, so every kind here is parameterized for full recall: filter
// methods run with Gamma=1 (refine every candidate), NAPP/MI-file index
// and search all pivots, the VP-trees run with a vanishing pruning stretch,
// the graphs search with an exhaustive frontier (EfSearch = n), and MPLSH
// hashes everything into one bucket. With the candidate budget open, the
// only thing separating sharded from unsharded answers is the partition,
// id translation and merge — exactly the machinery under test. (Production
// settings keep their approximate budgets; the merge stays deterministic
// and the union of per-shard top-k typically improves recall, see the
// package doc.)

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/indextest"
	"repro/internal/knngraph"
	"repro/internal/lsh"
	"repro/internal/router"
	"repro/internal/seqscan"
	"repro/internal/shard"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vptree"
)

const seed = indextest.CorpusSeed

// shardCounts are the S values of the property (1 covers the degenerate
// identity partition).
var shardCounts = []int{1, 2, 3, 5}

// kindBuilder builds one full-recall-parameterized index kind over an
// arbitrary corpus subset — the same builder constructs the unsharded
// reference and every shard index.
type kindBuilder[T any] struct {
	kind  string
	build func(data []T) (index.Index[T], error)
}

// fullRecallKinds is the generic kind matrix (every kind constructible over
// any space); the dense driver appends the L2-only mplsh.
func fullRecallKinds[T any](sp space.Space[T]) []kindBuilder[T] {
	return []kindBuilder[T]{
		{"seqscan", func(data []T) (index.Index[T], error) {
			return seqscan.New(sp, data), nil
		}},
		{"vptree", func(data []T) (index.Index[T], error) {
			// A vanishing stretch disables pruning entirely, which keeps
			// the tree exact under non-metric spaces (KL) too.
			return vptree.New(sp, data, vptree.Options{BucketSize: 8, AlphaLeft: 1e-12, AlphaRight: 1e-12, Seed: seed})
		}},
		{"brute-force-filt", func(data []T) (index.Index[T], error) {
			return core.NewBruteForceFilter(sp, data, core.BruteForceOptions{NumPivots: 16, Gamma: 1, Seed: seed})
		}},
		{"brute-force-filt-bin", func(data []T) (index.Index[T], error) {
			return core.NewBinFilter(sp, data, core.BinFilterOptions{NumPivots: 32, Gamma: 1, Seed: seed})
		}},
		{"brute-force-filt-quant", func(data []T) (index.Index[T], error) {
			// Gamma=1 refines every point: the quantized prefix reorders
			// candidate evaluation but cannot change the returned answers.
			return core.NewQuantFilter(sp, data, core.QuantFilterOptions{NumPivots: 32, PrefixLen: 16, Gamma: 1, Seed: seed})
		}},
		{"distvec-filt", func(data []T) (index.Index[T], error) {
			return core.NewDistVecFilter(sp, data, core.BruteForceOptions{NumPivots: 16, Gamma: 1, Seed: seed})
		}},
		{"pp-index", func(data []T) (index.Index[T], error) {
			return core.NewPPIndex(sp, data, core.PPIndexOptions{NumPivots: 16, PrefixLen: 4, Copies: 2, Gamma: 1, Seed: seed})
		}},
		{"mi-file", func(data []T) (index.Index[T], error) {
			// Index and search every pivot with no position filter: the
			// candidate set is the whole corpus.
			return core.NewMIFile(sp, data, core.MIFileOptions{
				NumPivots: 16, NumPivotIndex: 16, NumPivotSearch: 16, Gamma: 1, Seed: seed,
			})
		}},
		{"napp", func(data []T) (index.Index[T], error) {
			// Every point posts every pivot; MinShared 1 admits the whole
			// corpus as candidates.
			return core.NewNAPP(sp, data, core.NAPPOptions{
				NumPivots: 32, NumPivotIndex: 32, MinShared: 1, Seed: seed,
			})
		}},
		{"omedrank", func(data []T) (index.Index[T], error) {
			// Gamma 1 keeps aggregating until every point crosses the
			// quorum (each voter ranks the whole corpus, so all do).
			return core.NewOMEDRANK(sp, data, core.OMEDRANKOptions{NumVoters: 6, Gamma: 1, Seed: seed})
		}},
		{"perm-vptree", func(data []T) (index.Index[T], error) {
			return core.NewPermVPTree(sp, data, core.PermVPTreeOptions{NumPivots: 16, Gamma: 1, Seed: seed})
		}},
		{"sw-graph", func(data []T) (index.Index[T], error) {
			// EfSearch = n makes the best-first search exhaust the
			// connected component, i.e. exact on a connected graph.
			return knngraph.NewSW(sp, data, knngraph.Options{
				NN: 10, EfSearch: len(data), InitAttempts: 4, Seed: seed,
			})
		}},
		{"nndescent-graph", func(data []T) (index.Index[T], error) {
			return knngraph.NewNNDescent(sp, data, knngraph.Options{
				NN: 10, EfSearch: len(data), InitAttempts: 4, Seed: seed,
			})
		}},
	}
}

// denseFullRecallKinds appends mplsh: one table, one hash, a quantization
// width far above any projection value — every point lands in one bucket.
func denseFullRecallKinds(sp space.Space[[]float32]) []kindBuilder[[]float32] {
	kinds := fullRecallKinds[[]float32](sp)
	return append(kinds, kindBuilder[[]float32]{"mplsh", func(data [][]float32) (index.Index[[]float32], error) {
		m, err := lsh.New(data, lsh.Options{Tables: 1, Hashes: 1, Width: 1e12, Seed: seed})
		if err != nil {
			return nil, err
		}
		return index.Index[[]float32](m), nil
	}})
}

// buildLocal hash-partitions db into S shards, builds one index per shard
// with kb, and wraps them in a Local.
func buildLocal[T any](t *testing.T, kb kindBuilder[T], db []T, S int, p shard.Partitioner) *router.Local[T] {
	t.Helper()
	ids, err := shard.IDs(p, len(db), S)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]router.LocalShard[T], S)
	for s := range ids {
		idx, err := kb.build(shard.Subset(db, ids[s]))
		if err != nil {
			t.Fatalf("building shard %d/%d: %v", s, S, err)
		}
		shards[s] = router.LocalShard[T]{Index: idx, IDs: ids[s]}
	}
	loc, err := router.NewLocal(shards)
	if err != nil {
		t.Fatal(err)
	}
	return loc
}

// diffResults mirrors the indextest conformance helper: two result lists
// must match exactly, ids and distances.
func diffResults(t *testing.T, want, got []topk.Neighbor, ctx string) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%s: got %d results, want %d", ctx, len(got), len(want))
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%s: result %d = {id %d, dist %g}, want {id %d, dist %g}",
				ctx, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
		}
	}
}

// testShardedIdentity runs the property for one corpus over the given kind
// matrix.
func testShardedIdentity[T any](t *testing.T, db, queries []T, kinds []kindBuilder[T]) {
	t.Helper()
	// Probe with held-out queries plus corpus points (exact self-hits
	// stress tie-breaking: distance-zero duplicates must merge
	// canonically).
	probes := append(append([]T{}, queries...), db[:4]...)
	ks := []int{1, 10, 50, len(db) + 7}

	for _, kb := range kinds {
		t.Run(kb.kind, func(t *testing.T) {
			unsharded, err := kb.build(db)
			if err != nil {
				t.Fatal(err)
			}
			for _, S := range shardCounts {
				t.Run(fmt.Sprintf("S=%d", S), func(t *testing.T) {
					loc := buildLocal(t, kb, db, S, shard.Hash)
					var dst []topk.Neighbor
					for qi, q := range probes {
						for _, k := range ks {
							want := unsharded.Search(q, k)
							got := loc.Search(q, k)
							diffResults(t, want, got, fmt.Sprintf("query %d k=%d (Search)", qi, k))
							dst = loc.SearchAppend(dst[:0], q, index.Options{K: k})
							diffResults(t, want, dst, fmt.Sprintf("query %d k=%d (SearchAppend)", qi, k))
						}
					}
					// The batch engine over a Local must equal the serial
					// loop.
					const k = 10
					want := make([][]topk.Neighbor, len(probes))
					for i, q := range probes {
						want[i] = unsharded.Search(q, k)
					}
					batch, err := engine.SearchBatch(engine.NewPool(4), index.Index[T](loc), probes, index.Options{K: k})
					if err != nil {
						t.Fatal(err)
					}
					for i := range probes {
						diffResults(t, want[i], batch[i], fmt.Sprintf("batch query %d", i))
					}
				})
			}
		})
	}
}

// TestLocalShardedIdentityDense runs the full 13-kind matrix over the
// shared dense L2 corpus.
func TestLocalShardedIdentityDense(t *testing.T) {
	db, queries := indextest.DenseCorpus()
	testShardedIdentity(t, db, queries, denseFullRecallKinds(space.L2{}))
}

// TestLocalShardedIdentityDNA runs the generic kinds over the byte-string
// corpus: normalized Levenshtein's heavily tied, discrete distances are the
// hard case for canonical merge ordering.
func TestLocalShardedIdentityDNA(t *testing.T) {
	if testing.Short() {
		t.Skip("dense corpus covers the kind matrix; skipping the tie-stress corpus in -short")
	}
	db, queries := indextest.DNACorpus()
	testShardedIdentity(t, db, queries, fullRecallKinds[[]byte](space.NormalizedLevenshtein{}))
}

// TestLocalShardedIdentityKL covers the asymmetric KL divergence with a
// representative kind subset (the dense run already covers every kind; this
// corpus exists to exercise left-query asymmetry through the shard path).
func TestLocalShardedIdentityKL(t *testing.T) {
	if testing.Short() {
		t.Skip("dense corpus covers the kind matrix; skipping the asymmetric corpus in -short")
	}
	db, queries := indextest.HistoCorpus()
	all := fullRecallKinds[space.Histogram](space.KLDivergence{})
	keep := map[string]bool{"seqscan": true, "vptree": true, "napp": true, "sw-graph": true, "mi-file": true}
	var kinds []kindBuilder[space.Histogram]
	for _, kb := range all {
		if keep[kb.kind] {
			kinds = append(kinds, kb)
		}
	}
	testShardedIdentity(t, db, queries, kinds)
}

// TestLocalRoundRobinIdentity covers the second partitioner: identity must
// hold for round-robin striping too (monotone id maps are
// partitioner-independent).
func TestLocalRoundRobinIdentity(t *testing.T) {
	db, queries := indextest.DenseCorpus()
	kb := kindBuilder[[]float32]{"seqscan", func(data [][]float32) (index.Index[[]float32], error) {
		return seqscan.New[[]float32](space.L2{}, data), nil
	}}
	unsharded, err := kb.build(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, S := range shardCounts {
		loc := buildLocal(t, kb, db, S, shard.RoundRobin)
		for qi, q := range queries {
			diffResults(t, unsharded.Search(q, 10), loc.Search(q, 10),
				fmt.Sprintf("round-robin S=%d query %d", S, qi))
		}
	}
}

// TestNewLocalValidation covers constructor error paths and naming.
func TestNewLocalValidation(t *testing.T) {
	if _, err := router.NewLocal[[]float32](nil); err == nil {
		t.Fatal("NewLocal with no shards must error")
	}
	if _, err := router.NewLocal([]router.LocalShard[[]float32]{{}}); err == nil {
		t.Fatal("NewLocal with a nil shard index must error")
	}
	db, _ := indextest.DenseCorpus()
	loc := buildLocal(t, kindBuilder[[]float32]{"seqscan", func(data [][]float32) (index.Index[[]float32], error) {
		return seqscan.New[[]float32](space.L2{}, data), nil
	}}, db, 3, shard.Hash)
	if loc.Name() != "seqscan-sharded3" {
		t.Fatalf("Name = %q", loc.Name())
	}
	if loc.Shards() != 3 {
		t.Fatalf("Shards = %d", loc.Shards())
	}
	if got := loc.Search(db[0], 0); got != nil {
		t.Fatalf("Search k=0 returned %v", got)
	}
}
