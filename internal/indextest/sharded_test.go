package indextest

// The sharded-identity property suite: over every registered index kind, S
// shard indexes — each an index.Subset over its shard.IDs, exactly what a
// shard daemon serves — merged by topk.SelectK over the concatenation of
// their answers (the rule the router's merge applies) must answer
// *identically* (ids and distances, ties broken canonically) to one
// unsharded index over the full corpus.
//
// Identity holds exactly when each shard returns its shard-local true top-k,
// so every kind comes from the full-recall matrix (kinds_test.go). With the
// candidate budget open, the only thing separating sharded from unsharded
// answers is the partition, id translation and merge — exactly the machinery
// under test. (Production settings keep their approximate budgets; the merge
// stays deterministic and the union of per-shard top-k typically improves
// recall.)

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/space"
	"repro/internal/topk"
)

// shardCounts are the S values of the property (1 covers the degenerate
// identity partition).
var shardCounts = []int{1, 2, 3, 5}

// buildShards partitions db into S shards with p and builds kb over each
// shard's objects, served in corpus ids.
func buildShards[T any](t *testing.T, kb fullRecallKind[T], db []T, S int, p shard.Partitioner) []index.Index[T] {
	t.Helper()
	ids, err := shard.IDs(p, len(db), S)
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]index.Index[T], S)
	for s := range ids {
		idx, err := kb.build(shard.Subset(db, ids[s]))
		if err != nil {
			t.Fatalf("building shard %d/%d: %v", s, S, err)
		}
		shards[s] = index.Subset[T]{Index: idx, IDs: ids[s]}
	}
	return shards
}

// searchShards appends every shard's answer to one list — each Subset must
// translate only its own entries — and keeps the canonical top k.
func searchShards[T any](shards []index.Index[T], q T, k int) []topk.Neighbor {
	var all []topk.Neighbor
	for _, sh := range shards {
		all = sh.SearchAppend(all, q, index.Options{K: k})
	}
	return topk.SelectK(all, k)
}

// testShardedIdentity runs the property for one corpus over the given kind
// matrix.
func testShardedIdentity[T any](t *testing.T, db, queries []T, kinds []fullRecallKind[T]) {
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
					shards := buildShards(t, kb, db, S, shard.Hash)
					for qi, q := range probes {
						for _, k := range ks {
							want := unsharded.Search(q, k)
							diffResults(t, want, searchShards(shards, q, k), fmt.Sprintf("query %d k=%d (SearchAppend)", qi, k))
							var parts []topk.Neighbor
							for _, sh := range shards {
								parts = append(parts, sh.Search(q, k)...)
							}
							diffResults(t, want, topk.SelectK(parts, k), fmt.Sprintf("query %d k=%d (Search)", qi, k))
						}
					}
					// The batch engine over each shard, merged per query,
					// must equal the serial loop: a shard daemon's batch
					// path feeding the router's merge.
					const k = 10
					batches := make([][][]topk.Neighbor, S)
					for s, sh := range shards {
						batches[s], err = engine.SearchBatch(engine.NewPool(4), sh, probes, index.Options{K: k})
						if err != nil {
							t.Fatal(err)
						}
					}
					for i, q := range probes {
						var parts []topk.Neighbor
						for s := range shards {
							parts = append(parts, batches[s][i]...)
						}
						diffResults(t, unsharded.Search(q, k), topk.SelectK(parts, k), fmt.Sprintf("batch query %d", i))
					}
				})
			}
		})
	}
}

// TestShardedIdentityDense runs the full 13-kind matrix over the shared
// dense L2 corpus.
func TestShardedIdentityDense(t *testing.T) {
	db, queries := denseCorpus()
	testShardedIdentity(t, db, queries, denseFullRecallKinds(space.L2{}))
}

// TestShardedIdentityDNA runs the generic kinds over the byte-string corpus:
// normalized Levenshtein's heavily tied, discrete distances are the hard
// case for canonical merge ordering.
func TestShardedIdentityDNA(t *testing.T) {
	if testing.Short() {
		t.Skip("dense corpus covers the kind matrix; skipping the tie-stress corpus in -short")
	}
	db, queries := dnaCorpus()
	testShardedIdentity(t, db, queries, fullRecallKinds[[]byte](space.NormalizedLevenshtein{}))
}

// TestShardedIdentityKL covers the asymmetric KL divergence with the
// representative kind subset, exercising left-query asymmetry through the
// shard path.
func TestShardedIdentityKL(t *testing.T) {
	if testing.Short() {
		t.Skip("dense corpus covers the kind matrix; skipping the asymmetric corpus in -short")
	}
	db, queries := histoCorpus()
	testShardedIdentity(t, db, queries, klFullRecallKinds())
}

// TestShardedIdentityRoundRobin covers the second partitioner: identity must
// hold for round-robin striping too (monotone id maps are
// partitioner-independent).
func TestShardedIdentityRoundRobin(t *testing.T) {
	db, queries := denseCorpus()
	kb := fullRecallKinds[[]float32](space.L2{})[0] // seqscan
	unsharded, err := kb.build(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, S := range shardCounts {
		shards := buildShards(t, kb, db, S, shard.RoundRobin)
		for qi, q := range queries {
			diffResults(t, unsharded.Search(q, 10), searchShards(shards, q, 10),
				fmt.Sprintf("round-robin S=%d query %d", S, qi))
		}
	}
}
