package server

// Sharded-serving tests: a server whose manifest carries a shard.Info stamp
// must carve the stamped subset out of the regenerated corpus, answer with
// corpus-global ids, and surface the stamp plus generation in /v1/indexes —
// the contract the permrouter front tier builds on.

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vptree"
	"repro/internal/wire"
)

// buildShardFixtures splits the DNA corpus into two hash shards, builds a
// VP-tree per shard (exact under normalized Levenshtein), and writes both
// into one directory — standing in for two shard processes, which share no
// state anyway. Returns the unsharded reference tree and the probe queries.
func buildShardFixtures(t *testing.T) (dir string, ref *vptree.Tree[[]byte], queries [][]byte) {
	t.Helper()
	dir = t.TempDir()
	db := dataset.DNA(e2eSeed, e2eDNAN, dataset.DNAOptions{})
	ids, err := shard.IDs(shard.Hash, len(db), 2)
	if err != nil {
		t.Fatal(err)
	}
	for s := range ids {
		tree, err := vptree.New[[]byte](space.NormalizedLevenshtein{}, shard.Subset(db, ids[s]), vptree.Options{Seed: e2eSeed})
		if err != nil {
			t.Fatal(err)
		}
		writeFixture(t, dir, []string{"dna-s0", "dna-s1"}[s], tree, Manifest{
			Dataset: "dna", Seed: e2eSeed, N: e2eDNAN, Generation: 5,
			Shard: &shard.Info{Set: "dna", Partitioner: shard.Hash, Shards: 2, Index: s},
		})
	}
	ref, err = vptree.New[[]byte](space.NormalizedLevenshtein{}, db, vptree.Options{Seed: e2eSeed})
	if err != nil {
		t.Fatal(err)
	}
	queries = append(dataset.DNA(e2eSeed+1, 6, dataset.DNAOptions{}), db[:3]...)
	return dir, ref, queries
}

// TestServedShardsMergeToUnsharded: querying both shard indexes over HTTP
// and merging the answers canonically reproduces the unsharded tree's
// Search exactly — ids are global, distances true, ties canonical.
func TestServedShardsMergeToUnsharded(t *testing.T) {
	dir, ref, queries := buildShardFixtures(t)
	ts := bootServer(t, dir, Options{Workers: 2, Timeout: 30 * time.Second})
	const k = 10
	for qi, q := range queries {
		var union []topk.Neighbor
		for _, name := range []string{"dna-s0", "dna-s1"} {
			status, raw := postJSON(t, ts.URL+"/v1/indexes/"+name+"/search",
				map[string]any{"query": string(q), "k": k})
			if status != http.StatusOK {
				t.Fatalf("%s query %d: status %d: %s", name, qi, status, raw)
			}
			var resp wire.SearchResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				t.Fatal(err)
			}
			for _, nb := range resp.Results {
				union = append(union, topk.Neighbor{ID: nb.ID, Dist: nb.Dist})
			}
		}
		got := topk.SelectK(union, k)
		want := ref.Search(q, k)
		if len(got) != len(want) {
			t.Fatalf("query %d: merged %d results, unsharded %d", qi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d result %d: merged {id %d, dist %g}, unsharded {id %d, dist %g}",
					qi, i, got[i].ID, got[i].Dist, want[i].ID, want[i].Dist)
			}
		}
	}
}

// TestServedShardMetadata: the stamp and generation surface in /v1/indexes,
// with the subset and corpus sizes.
func TestServedShardMetadata(t *testing.T) {
	dir, _, _ := buildShardFixtures(t)
	ts := bootServer(t, dir, Options{})

	resp, err := http.Get(ts.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Indexes []wire.IndexInfo `json:"indexes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Indexes) != 2 {
		t.Fatalf("listed %d indexes", len(list.Indexes))
	}
	var subsetTotal uint64
	for i, info := range list.Indexes {
		if info.Shard == nil {
			t.Fatalf("index %q has no shard stamp", info.Name)
		}
		if info.Shard.Shards != 2 || info.Shard.Index != i || info.Shard.Partitioner != shard.Hash {
			t.Errorf("index %q stamp = %+v", info.Name, info.Shard)
		}
		if info.Generation != 5 {
			t.Errorf("index %q generation = %d, want 5", info.Name, info.Generation)
		}
		if info.CorpusN != e2eDNAN {
			t.Errorf("index %q corpus_n = %d, want %d", info.Name, info.CorpusN, e2eDNAN)
		}
		subsetTotal += info.N
	}
	if subsetTotal != e2eDNAN {
		t.Errorf("shard sizes sum to %d, corpus holds %d", subsetTotal, e2eDNAN)
	}
}

// TestShardManifestValidation: a corrupt stamp refuses to serve instead of
// serving wrong ids.
func TestShardManifestValidation(t *testing.T) {
	dir := t.TempDir()
	db := dataset.DNA(e2eSeed, 50, dataset.DNAOptions{})
	ids, err := shard.IDs(shard.Hash, len(db), 2)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := vptree.New[[]byte](space.NormalizedLevenshtein{}, shard.Subset(db, ids[0]), vptree.Options{Seed: e2eSeed})
	if err != nil {
		t.Fatal(err)
	}
	// Stamp claims shard 1, but the file was built over shard 0's subset:
	// the loader's size check must reject the mismatch (the subsets have
	// different sizes under the hash partitioner for this corpus).
	writeFixture(t, dir, "bad", tree, Manifest{
		Dataset: "dna", Seed: e2eSeed, N: 50,
		Shard: &shard.Info{Set: "x", Partitioner: shard.Hash, Shards: 2, Index: 1},
	})
	if len(ids[0]) == len(ids[1]) {
		t.Fatal("test premise broken: shards are the same size; pick another corpus size")
	}
	if _, err := OpenDir(dir); err == nil {
		t.Fatal("OpenDir served an index whose shard stamp mismatches its file")
	}

	// An invalid stamp (index out of range) must also refuse.
	writeFixture(t, dir, "bad", tree, Manifest{
		Dataset: "dna", Seed: e2eSeed, N: 50,
		Shard: &shard.Info{Set: "x", Partitioner: shard.Hash, Shards: 2, Index: 7},
	})
	if _, err := OpenDir(dir); err == nil {
		t.Fatal("OpenDir accepted an out-of-range shard stamp")
	}
}
