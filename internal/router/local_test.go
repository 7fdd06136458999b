package router_test

// The in-process sharded-identity suite over the HTTP tier: S shard daemons,
// each serving (through its shard stamp) an index built over its shard.IDs
// subset, scattered over by a Router on a local listener, must answer
// byte-identically to one unsharded daemon over the full corpus — ids,
// distances, ties and JSON alike.
//
// Identity holds exactly when each shard returns its shard-local true top-k,
// so every kind here is parameterized for full recall (the in-memory form of
// this property, over every kind, is internal/indextest's
// TestShardedIdentity*). With the candidate budget open, the only thing
// separating the routed answer from the unsharded one is the partition, the
// shard daemons' id translation, the wire and the router's merge.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/router"
	"repro/internal/seqscan"
	"repro/internal/shard"
	"repro/internal/space"
	"repro/internal/vptree"
)

const (
	localSeed    = 7
	localN       = 300 // indexed corpus size
	localQueries = 12  // held-out queries after the corpus
)

// localShardCounts are the S values of the property (1 covers the
// degenerate identity partition).
var localShardCounts = []int{1, 2, 3, 5}

// localKind builds one full-recall-parameterized index kind over an
// arbitrary corpus subset: the same builder constructs the unsharded
// reference and every shard index.
type localKind[T any] struct {
	kind  string
	build func(data []T) (index.Index[T], error)
}

// klKinds is the representative kind subset run under the asymmetric KL
// divergence.
func klKinds(sp space.Space[space.Histogram]) []localKind[space.Histogram] {
	type H = space.Histogram
	return []localKind[H]{
		{"seqscan", func(data []H) (index.Index[H], error) {
			return seqscan.New(sp, data), nil
		}},
		{"vptree", func(data []H) (index.Index[H], error) {
			// A vanishing stretch disables pruning entirely, which keeps
			// the tree exact under the non-metric KL divergence.
			return vptree.New(sp, data, vptree.Options{BucketSize: 8, AlphaLeft: 1e-12, AlphaRight: 1e-12, Seed: localSeed})
		}},
		{"mi-file", func(data []H) (index.Index[H], error) {
			// Index and search every pivot with no position filter: the
			// candidate set is the whole corpus.
			return core.NewMIFile(sp, data, core.MIFileOptions{
				NumPivots: 16, NumPivotIndex: 16, NumPivotSearch: 16, Gamma: 1, Seed: localSeed,
			})
		}},
		{"napp", func(data []H) (index.Index[H], error) {
			// Every point posts every pivot; MinShared 1 admits the whole
			// corpus as candidates.
			return core.NewNAPP(sp, data, core.NAPPOptions{
				NumPivots: 32, NumPivotIndex: 32, MinShared: 1, Seed: localSeed,
			})
		}},
		{"sw-graph", func(data []H) (index.Index[H], error) {
			// EfSearch = n makes the best-first search exhaust the
			// connected component, i.e. exact on a connected graph.
			return knngraph.NewSW(sp, data, knngraph.Options{
				NN: 10, EfSearch: len(data), InitAttempts: 4, Seed: localSeed,
			})
		}},
	}
}

// localFamily resolves a data-set name to its typed family.
func localFamily[T any](t *testing.T, name string) *dataset.Family[T] {
	t.Helper()
	e, err := dataset.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	fam, ok := e.(*dataset.Family[T])
	if !ok {
		t.Fatalf("dataset %q is a %T", name, e)
	}
	return fam
}

// bootLocal builds kb over each of p's S shards of db and serves every shard
// from its own daemon, stamped as shard s of S over gen(localSeed, localN).
func bootLocal[T any](t *testing.T, name string, kb localKind[T], db []T, S int, p shard.Partitioner) []*httptest.Server {
	t.Helper()
	ids, err := shard.IDs(p, len(db), S)
	if err != nil {
		t.Fatal(err)
	}
	var shards []*httptest.Server
	for s := range ids {
		idx, err := kb.build(shard.Subset(db, ids[s]))
		if err != nil {
			t.Fatalf("building shard %d/%d: %v", s, S, err)
		}
		shards = append(shards, writeServed(t, idx, shard.Sidecar{
			Dataset: name, Seed: localSeed, N: localN,
			Shard: &shard.Info{Set: rtName, Partitioner: p, Shards: S, Index: s},
		}))
	}
	return shards
}

// sameAnswer posts body to the unsharded daemon and to the router and
// requires both to answer 200 with the same bytes.
func sameAnswer(t *testing.T, unsharded, rt *httptest.Server, body map[string]any, ctx string) {
	t.Helper()
	wantStatus, want := post(t, searchURL(unsharded.URL), body)
	gotStatus, got := post(t, searchURL(rt.URL), body)
	if wantStatus != http.StatusOK || gotStatus != http.StatusOK {
		t.Fatalf("%s: statuses %d (unsharded) / %d (routed): %s", ctx, wantStatus, gotStatus, got)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s: routed answer differs from unsharded\nrouted    %s\nunsharded %s", ctx, got, want)
	}
}

// testLocalIdentity runs the property for one corpus over the given kind
// matrix and partitioner: single queries at several k, then one batch.
func testLocalIdentity[T any](t *testing.T, name string, kinds []localKind[T], p shard.Partitioner, ks []int) {
	t.Helper()
	fam := localFamily[T](t, name)
	all := fam.Gen(localSeed, localN+localQueries)
	db := all[:localN]
	// Probe with held-out queries plus corpus points (exact self-hits
	// stress tie-breaking: distance-zero duplicates must merge
	// canonically).
	var probes []json.RawMessage
	for _, q := range append(append([]T{}, all[localN:]...), db[:4]...) {
		raw, err := fam.Encode(q)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, raw)
	}

	for _, kb := range kinds {
		t.Run(kb.kind, func(t *testing.T) {
			ref, err := kb.build(db)
			if err != nil {
				t.Fatal(err)
			}
			unsharded := writeServed(t, ref, shard.Sidecar{Dataset: name, Seed: localSeed, N: localN})
			for _, S := range localShardCounts {
				t.Run(fmt.Sprintf("S=%d", S), func(t *testing.T) {
					rt := bootRouter(t, bootLocal(t, name, kb, db, S, p), router.Options{})
					for qi, q := range probes {
						for _, k := range ks {
							sameAnswer(t, unsharded, rt, map[string]any{"query": q, "k": k},
								fmt.Sprintf("query %d k=%d", qi, k))
						}
					}
					sameAnswer(t, unsharded, rt, map[string]any{"queries": probes, "k": 10}, "batch")
				})
			}
		})
	}
}

// TestLocalShardedIdentityKL covers the asymmetric KL divergence through the
// whole HTTP tier: left-query asymmetry must survive the shard daemons'
// decode, search and id translation and the router's merge.
func TestLocalShardedIdentityKL(t *testing.T) {
	if testing.Short() {
		t.Skip("the DNA router tests cover the HTTP tier; skipping the asymmetric corpus in -short")
	}
	testLocalIdentity(t, "wiki-8", klKinds(space.KLDivergence{}), shard.Hash,
		[]int{1, 10, 50, localN + 7})
}

// TestLocalRoundRobinIdentity covers the second partitioner: identity must
// hold for round-robin striped shard daemons too (monotone id maps are
// partitioner-independent).
func TestLocalRoundRobinIdentity(t *testing.T) {
	kinds := []localKind[[]float32]{{"seqscan", func(data [][]float32) (index.Index[[]float32], error) {
		return seqscan.New[[]float32](space.L2{}, data), nil
	}}}
	testLocalIdentity(t, "sift", kinds, shard.RoundRobin, []int{10})
}
