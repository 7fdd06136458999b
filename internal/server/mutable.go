package server

import (
	"fmt"
	"slices"

	"repro/internal/index"
	"repro/internal/lsm"
	"repro/internal/topk"
)

// The mutable serving tier. A manifest with "mutable": true gives the entry
// an lsm.Tree living in <name>.tiers/ next to the index file: the .psix
// stays the immutable base corpus index, while adds and deletes flow
// through the tree's WAL-backed memtable and sealed tiers. The tree is
// entry state, not snapshot state — a hot reload swaps the base index
// generation under the SAME tree, so acknowledged writes survive reloads
// exactly like they survive restarts.
//
// Write/reload exclusion is two-sided and lock-shaped rather than
// flag-shaped: every write holds the entry's ingest lock shared for its
// whole WAL append + ack, and Reload holds it exclusively across the
// unsealed-writes check and the snapshot swap. A write that arrives during
// a reload fails fast with 409 (TryRLock), and a reload that arrives while
// the tree holds unsealed writes is refused with 409 until a flush seals
// them — so neither side can ever observe the other half-done.

// servedTree is the type-erased face of an entry's mutable tree: the
// methods of *lsm.Tree[T] that do not mention T, so the HTTP layer never
// sees the object type.
type servedTree interface {
	AddBatch(raws [][]byte) ([]uint32, error)
	DeleteBatch(ids []uint32) error
	Flush() (*lsm.TierStatus, error)
	Status() lsm.Status
	// Live is the live object count: the one number of Status a search
	// needs (its k cap), without building the rest per request.
	Live() int
	Unsealed() int
	Close() error
}

// treeIndex adapts (base index, tree) to index.Index, so a mutable entry's
// queries, single or batched, take the path any other index's take. The
// tiered scatter checks the request context between components: a canceled
// query stops before the next tier and answers empty here, and the request
// then fails with the context's error (the search handler's ctx.Err check
// for a single query, the batch engine for a batch).
type treeIndex[T any] struct {
	base index.Index[T]
	tree *lsm.Tree[T]
}

func (ti treeIndex[T]) Search(q T, k int) []topk.Neighbor {
	return ti.SearchAppend(nil, q, index.Options{K: k})
}

func (ti treeIndex[T]) SearchAppend(dst []topk.Neighbor, q T, opts index.Options) []topk.Neighbor {
	dst, _ = ti.tree.SearchAppend(dst, ti.base, q, opts)
	return dst
}

func (ti treeIndex[T]) Name() string { return ti.base.Name() + "+lsm" }

// openTree opens (or reuses, across reloads) the entry's tree for a mutable
// manifest. Called with the entry exclusively owned: OpenDir is
// single-threaded and Reload holds both reloadMu and the ingest lock.
func openTree[T any](e *entry, man Manifest, data []T, opts lsm.Options[T]) (*lsm.Tree[T], error) {
	if e.tree != nil {
		tree, ok := e.tree.(*lsm.Tree[T])
		if !ok {
			return nil, fmt.Errorf("mutable index changed object type across reloads")
		}
		if tree.BaseN() != len(data) {
			return nil, fmt.Errorf("mutable index changed base corpus size across reloads: tree holds %d, new generation has %d", tree.BaseN(), len(data))
		}
		if got, want := tree.Space().Name(), opts.Space.Name(); got != want {
			return nil, fmt.Errorf("mutable index changed space across reloads: tree holds %q, new generation uses %q", got, want)
		}
		return tree, nil
	}
	opts.BaseN = len(data)
	tree, err := lsm.Open(opts)
	if err != nil {
		return nil, err
	}
	e.tree = tree
	return tree, nil
}

// deleteRequest is the body of POST /v1/indexes/{name}/delete: exactly one
// of "id" or "ids".
type deleteRequest struct {
	ID  *uint32  `json:"id,omitempty"`
	IDs []uint32 `json:"ids,omitempty"`
}

func (r *deleteRequest) all() []uint32 {
	if r.ID != nil {
		return []uint32{*r.ID}
	}
	return slices.Clone(r.IDs)
}
