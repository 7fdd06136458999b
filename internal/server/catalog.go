package server

import (
	"encoding/json"
	"fmt"
	"strconv"
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
	// Dataset names the generator: "sift", "cophir", "dna", "wiki-sparse",
	// "imagenet", or "wiki-<topics>" (e.g. "wiki-8") for LDA histograms.
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
	// shipping bumps it); surfaced in /statusz and /v1/indexes so a
	// rollout driver can observe which generation each process serves.
	Generation int64 `json:"generation,omitempty"`
	// Params are query-time method params resolved once at load
	// (experiments.ParseParams keys, e.g. {"gamma": 0.05}); they become
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

// typedIndex adapts one concrete index.Index[T] to servedIndex. For shard
// indexes, ids maps shard-local result ids to corpus-global ids (nil for an
// unsharded index); the map is strictly increasing (internal/shard.IDs), so
// translation preserves the canonical (dist, id) result order. For mutable
// indexes, tree wraps idx so searches cover tiers and memtable too.
type typedIndex[T any] struct {
	idx  index.Index[T]
	dec  func(json.RawMessage) (T, error)
	ids  []uint32
	tree *lsm.Tree[T]
}

// globalize rewrites shard-local ids to corpus-global ids in place.
func (t *typedIndex[T]) globalize(ns []topk.Neighbor) []topk.Neighbor {
	if t.ids != nil {
		for i := range ns {
			ns[i].ID = t.ids[ns[i].ID]
		}
	}
	return ns
}

func (t *typedIndex[T]) search(raw json.RawMessage, opts index.Options) ([]topk.Neighbor, error) {
	q, err := t.dec(raw)
	if err != nil {
		return nil, badRequestf("query: %v", err)
	}
	if t.tree != nil {
		// The tiered scatter checks ctx between components, so a canceled
		// single-query request stops before paying for the next tier.
		nbs, err := t.tree.SearchAppend(nil, t.idx, q, opts)
		if err != nil {
			return nil, err
		}
		return t.globalize(nbs), nil
	}
	return t.globalize(t.idx.SearchAppend(nil, q, opts)), nil
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
	idx := t.idx
	if t.tree != nil {
		idx = treeIndex[T]{base: t.idx, tree: t.tree}
	}
	outs, err := engine.SearchBatch(pool, idx, qs, opts)
	if err != nil {
		return nil, err
	}
	for _, ns := range outs {
		t.globalize(ns)
	}
	return outs, nil
}

// loadServed loads the entry's index file per its manifest: regenerate the
// corpus named by the manifest, resolve the space from the file header, and
// reconstruct the index over both. For a mutable manifest it also opens (or
// reuses — the tree outlives snapshots) the entry's LSM tree.
func loadServed(e *entry, man Manifest) (servedIndex, codec.Header, error) {
	path := e.path
	hdr, err := persist.PeekHeader(path)
	if err != nil {
		return nil, codec.Header{}, err
	}
	if man.N <= 0 {
		return nil, hdr, fmt.Errorf("manifest: n must be positive, got %d", man.N)
	}
	switch {
	case man.Dataset == "sift":
		data := dataset.SIFT(man.Seed, man.N)
		return loadTyped(e, hdr, man, data, denseSpace, decodeDense(len(data[0])))
	case man.Dataset == "cophir":
		data := dataset.CoPhIR(man.Seed, man.N)
		return loadTyped(e, hdr, man, data, denseSpace, decodeDense(len(data[0])))
	case man.Dataset == "dna":
		return loadTyped(e, hdr, man, dataset.DNA(man.Seed, man.N, dataset.DNAOptions{}), stringSpace, decodeString)
	case man.Dataset == "wiki-sparse":
		return loadTyped(e, hdr, man, dataset.WikiSparse(man.Seed, man.N, dataset.WikiSparseOptions{}), sparseSpace, decodeSparse)
	case man.Dataset == "imagenet":
		data := dataset.ImageNet(man.Seed, man.N, dataset.SignatureOptions{})
		return loadTyped(e, hdr, man, data, signatureSpace, decodeSignature(data[0].Dim))
	case strings.HasPrefix(man.Dataset, "wiki-"):
		topics, err := strconv.Atoi(strings.TrimPrefix(man.Dataset, "wiki-"))
		if err != nil || topics <= 1 {
			return nil, hdr, fmt.Errorf("manifest: dataset %q is not wiki-<topics>", man.Dataset)
		}
		return loadTyped(e, hdr, man, dataset.WikiLDA(man.Seed, man.N, topics), histogramSpace, decodeHistogram(topics))
	default:
		return nil, hdr, fmt.Errorf("manifest: unknown dataset %q", man.Dataset)
	}
}

// loadTyped finishes loadServed for one object type: carve the shard subset
// when the manifest carries a stamp, resolve the space the file was built
// under, load, and attach the entry's mutable tree when the manifest asks
// for one.
func loadTyped[T any](e *entry, hdr codec.Header, man Manifest, data []T,
	spOf func(string) (space.Space[T], error), dec func(json.RawMessage) (T, error)) (servedIndex, codec.Header, error) {
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
		// The per-kind loader verifies hdr.N against the data slice it
		// receives, so handing it the subset enforces "header records the
		// subset size" for free.
		data = shard.Subset(data, ids)
	}
	sp, err := spOf(hdr.Space)
	if err != nil {
		return nil, hdr, fmt.Errorf("%s: %w", path, err)
	}
	idx, err := persist.LoadFile(path, sp, data)
	if err != nil {
		return nil, hdr, err
	}
	ti := &typedIndex[T]{idx: idx, dec: dec, ids: ids}
	if man.Mutable {
		tree, err := openTree(e, man, data, lsm.Options[T]{
			Dir:   strings.TrimSuffix(path, persist.Ext) + ".tiers",
			FS:    e.fs,
			Space: sp,
			// Added objects arrive as JSON in the same encoding queries
			// use; the tree stores those raw bytes (WAL + tier segments)
			// and re-decodes them on recovery.
			Decode: func(raw []byte) (T, error) { return dec(json.RawMessage(raw)) },
		})
		if err != nil {
			return nil, hdr, fmt.Errorf("%s: mutable tier: %w", path, err)
		}
		ti.tree = tree
	}
	return ti, hdr, nil
}

// Space resolution per object type. The header's space tag names a
// parameterless value; an unknown tag for the manifest's object type means
// the file and manifest disagree.

func denseSpace(name string) (space.Space[[]float32], error) {
	switch name {
	case "l2":
		return space.L2{}, nil
	case "l1":
		return space.L1{}, nil
	}
	return nil, fmt.Errorf("no dense-vector space %q", name)
}

func stringSpace(name string) (space.Space[[]byte], error) {
	switch name {
	case "normleven":
		return space.NormalizedLevenshtein{}, nil
	case "leven":
		return space.Levenshtein{}, nil
	}
	return nil, fmt.Errorf("no byte-string space %q", name)
}

func sparseSpace(name string) (space.Space[space.SparseVector], error) {
	if name == "cosine" {
		return space.CosineDistance{}, nil
	}
	return nil, fmt.Errorf("no sparse-vector space %q", name)
}

func histogramSpace(name string) (space.Space[space.Histogram], error) {
	switch name {
	case "kldiv":
		return space.KLDivergence{}, nil
	case "jsdiv":
		return space.JSDivergence{}, nil
	}
	return nil, fmt.Errorf("no histogram space %q", name)
}

func signatureSpace(name string) (space.Space[space.Signature], error) {
	if name == "sqfd" {
		return space.SQFD{}, nil
	}
	return nil, fmt.Errorf("no signature space %q", name)
}

// Query decoders: the JSON shape of one query per object type. Shapes that
// must agree with the corpus (vector and histogram dimensionality, signature
// feature dim — the distance functions panic or silently mis-answer on a
// mismatch) are validated here, so a wrong-shaped query is a 400 to its
// sender, never a cancelled batch or a wrong answer.

// decodeDense decodes a dense vector of the corpus dimensionality:
// [0.5, 1, ...].
func decodeDense(dim int) func(json.RawMessage) ([]float32, error) {
	return func(raw json.RawMessage) ([]float32, error) {
		var v []float32
		if err := json.Unmarshal(raw, &v); err != nil {
			return nil, err
		}
		if len(v) != dim {
			return nil, fmt.Errorf("vector has %d dimensions, index corpus has %d", len(v), dim)
		}
		return v, nil
	}
}

// decodeString decodes a byte string: "ACGT".
func decodeString(raw json.RawMessage) ([]byte, error) {
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// decodeHistogram decodes a probability histogram over the corpus's bin
// count: [0.2, 0.8, ...] (floored and renormalized exactly like the data
// set's preprocessing).
func decodeHistogram(bins int) func(json.RawMessage) (space.Histogram, error) {
	return func(raw json.RawMessage) (space.Histogram, error) {
		var v []float32
		if err := json.Unmarshal(raw, &v); err != nil {
			return space.Histogram{}, err
		}
		if len(v) != bins {
			return space.Histogram{}, fmt.Errorf("histogram has %d bins, index corpus has %d", len(v), bins)
		}
		return space.NewHistogram(v), nil
	}
}

// decodeSparse decodes a sparse vector: {"idx": [3, 17], "val": [0.5, 1.25]}.
// Sparse cosine imposes no dimensionality; NewSparseVector validates the
// pair shape and ordering.
func decodeSparse(raw json.RawMessage) (space.SparseVector, error) {
	var v struct {
		Idx []int32   `json:"idx"`
		Val []float32 `json:"val"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		return space.SparseVector{}, err
	}
	return space.NewSparseVector(v.Idx, v.Val)
}

// decodeSignature decodes an SQFD signature with the corpus's feature
// dimensionality: {"weights": [...], "centroids": [...], "dim": 7}.
func decodeSignature(dim int) func(json.RawMessage) (space.Signature, error) {
	return func(raw json.RawMessage) (space.Signature, error) {
		var v struct {
			Weights   []float32 `json:"weights"`
			Centroids []float32 `json:"centroids"`
			Dim       int       `json:"dim"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			return space.Signature{}, err
		}
		if v.Dim != dim {
			return space.Signature{}, fmt.Errorf("signature has dim %d, index corpus has %d", v.Dim, dim)
		}
		return space.NewSignature(v.Weights, v.Centroids, v.Dim)
	}
}
