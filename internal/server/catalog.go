package server

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/lsm"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/space"
	"repro/internal/topk"
)

// Manifest is the sidecar JSON (<name>.json next to <name>.psix) that tells
// the server how to materialize the corpus an index file was built over.
// The codec format deliberately persists derived structure only, never the
// data objects, so the data must be regenerated — deterministically, from
// the named synthetic generator, its seed and its size. The space itself
// needs no manifest entry: every distance in this repository is a
// parameterless value reconstructable from the file header's space tag.
type Manifest struct {
	// Dataset names the generator: any name dataset.Lookup resolves.
	Dataset string `json:"dataset"`
	// Seed and N parameterize the generator: the *full* corpus is
	// gen(Seed, N). Without a Shard stamp, N must equal the data-set size
	// recorded in the index file header, or loading fails — a mismatched
	// manifest can never serve an index whose ids point at the wrong
	// objects. With a Shard stamp the index was built over the stamp's
	// deterministic subset of gen(Seed, N), and the header must record
	// the subset size instead.
	Seed int64 `json:"seed"`
	N    int   `json:"n"`
	// Shard, when present, marks this index as one shard of a
	// partitioned corpus (written by cmd/shardsplit): the served corpus
	// is the stamp's subset, and every result id is translated back to
	// its corpus-global id on the way out, so a scatter-gather router can
	// merge per-shard answers without any per-process id state.
	Shard *shard.Info `json:"shard,omitempty"`
	// Generation orders successive builds of the same index (snapshot
	// shipping bumps it); surfaced in /v1/indexes so a
	// rollout driver can observe which generation each process serves.
	Generation int64 `json:"generation,omitempty"`
	// Params are query-time method params resolved once at load by
	// index.Resolve (index.NamedParams keys, e.g. {"gamma": 0.05}); they become
	// the index's serving defaults, which a request's own params overlay
	// key by key.
	Params map[string]float64 `json:"params,omitempty"`
	// Mutable opens a WAL-backed LSM tree (internal/lsm) in <name>.tiers/
	// next to the index file and enables POST add/delete/flush: the .psix
	// serves as the immutable base corpus, writes land in the tree, and
	// searches scatter-gather base + sealed tiers + memtable. Incompatible
	// with Shard (a sharded corpus is repartitioned offline, not mutated in
	// place).
	Mutable bool `json:"mutable,omitempty"`
}

// servedIndex is the type-erased face of one loaded index: JSON-encoded
// queries in, neighbors out. The HTTP layer never sees the object type.
// opts carries everything else a query needs: k, the request context (a
// canceled request stops scattering across tiers and stops the batch
// fan-out pulling further queries), the trace receiving the per-stage
// breakdown, and the resolved method params.
type servedIndex interface {
	search(raw json.RawMessage, opts index.Options) ([]topk.Neighbor, error)
	searchBatch(raws []json.RawMessage, opts index.Options, pool engine.Pool) ([][]topk.Neighbor, error)
}

// typedIndex adapts one concrete index.Index[T] to servedIndex. A shard
// index is an index.Subset, so it answers in corpus-global ids; a mutable
// index is a treeIndex, so searches cover tiers and memtable too.
type typedIndex[T any] struct {
	idx index.Index[T]
	dec func(raw []byte) (T, error)
}

func (t *typedIndex[T]) search(raw json.RawMessage, opts index.Options) ([]topk.Neighbor, error) {
	q, err := t.dec(raw)
	if err != nil {
		return nil, badRequestf("query: %v", err)
	}
	return t.idx.SearchAppend(nil, q, opts), nil
}

func (t *typedIndex[T]) searchBatch(raws []json.RawMessage, opts index.Options, pool engine.Pool) ([][]topk.Neighbor, error) {
	qs := make([]T, len(raws))
	for i, raw := range raws {
		q, err := t.dec(raw)
		if err != nil {
			return nil, badRequestf("query %d: %v", i, err)
		}
		qs[i] = q
	}
	return engine.SearchBatch(pool, t.idx, qs, opts)
}

// loadServed loads the entry's index file per its manifest: look the
// manifest's data set up in the one table (internal/dataset), regenerate its
// corpus, resolve the space from the file header among the distances the
// family admits, and reconstruct the index over both. For a mutable manifest
// it also opens (or reuses — the tree outlives snapshots) the entry's LSM
// tree.
func loadServed(e *entry, man Manifest) (servedIndex, codec.Header, error) {
	path := e.path
	hdr, err := persist.PeekHeader(path)
	if err != nil {
		return nil, codec.Header{}, err
	}
	if man.N <= 0 {
		return nil, hdr, fmt.Errorf("manifest: n must be positive, got %d", man.N)
	}
	fam, err := dataset.Lookup(man.Dataset)
	if err != nil {
		return nil, hdr, fmt.Errorf("manifest: %w", err)
	}
	switch f := fam.(type) {
	case *dataset.Family[[]float32]:
		return loadTyped(e, hdr, man, f)
	case *dataset.Family[[]byte]:
		return loadTyped(e, hdr, man, f)
	case *dataset.Family[space.SparseVector]:
		return loadTyped(e, hdr, man, f)
	case *dataset.Family[space.Histogram]:
		return loadTyped(e, hdr, man, f)
	case *dataset.Family[space.Signature]:
		return loadTyped(e, hdr, man, f)
	}
	return nil, hdr, fmt.Errorf("manifest: dataset %q holds an object type this server cannot load", man.Dataset)
}

// loadTyped finishes loadServed at the family's object type: resolve the
// space the file was built under, generate the corpus, carve the shard subset
// when the manifest carries a stamp, load, and attach the entry's mutable
// tree when the manifest asks for one.
func loadTyped[T any](e *entry, hdr codec.Header, man Manifest, fam *dataset.Family[T]) (servedIndex, codec.Header, error) {
	path := e.path
	if man.Mutable && man.Shard != nil {
		return nil, hdr, fmt.Errorf("%s: manifest: mutable and shard are incompatible", path)
	}
	var ids []uint32
	if man.Shard != nil {
		if err := man.Shard.Validate(); err != nil {
			return nil, hdr, fmt.Errorf("%s: manifest shard stamp: %w", path, err)
		}
		var err error
		ids, err = shard.ShardIDs(man.Shard.Partitioner, man.N, man.Shard.Shards, man.Shard.Index)
		if err != nil {
			return nil, hdr, fmt.Errorf("%s: %w", path, err)
		}
	}
	sp, err := fam.Space(hdr.Space)
	if err != nil {
		return nil, hdr, fmt.Errorf("%s: %w", path, err)
	}
	data := fam.Gen(man.Seed, man.N)
	// Queries and added objects must have the corpus's shape; any member
	// shows it.
	like := data[0]
	dec := func(raw []byte) (T, error) { return fam.Decode(raw, like) }
	if man.Shard != nil {
		// The per-kind loader verifies hdr.N against the data slice it
		// receives, so handing it the subset enforces "header records the
		// subset size" for free.
		data = shard.Subset(data, ids)
	}
	idx, err := persist.LoadFile(path, sp, data)
	if err != nil {
		return nil, hdr, err
	}
	if ids != nil {
		idx = index.Subset[T]{Index: idx, IDs: ids}
	}
	if man.Mutable {
		tree, err := openTree(e, man, data, lsm.Options[T]{
			Dir:   strings.TrimSuffix(path, persist.Ext) + ".tiers",
			FS:    e.fs,
			Space: sp,
			// Added objects arrive as JSON in the same encoding queries
			// use; the tree stores those raw bytes (WAL + tier segments)
			// and re-decodes them on recovery.
			Decode: dec,
		})
		if err != nil {
			return nil, hdr, fmt.Errorf("%s: mutable tier: %w", path, err)
		}
		idx = treeIndex[T]{base: idx, tree: tree}
	}
	return &typedIndex[T]{idx: idx, dec: dec}, hdr, nil
}
