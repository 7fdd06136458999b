package core

import "fmt"

// Dynamic maintenance. §3.5 of the paper argues that inverted-file
// permutation indexes are database-friendly partly because "deletion and
// addition of records can be easily implemented"; this file implements that
// claim for NAPP.
//
// Add computes the new point's pivot order and appends its id to the
// affected posting lists (ids stay sorted because new ids are the largest).
// Delete tombstones an id; Search skips tombstoned candidates, and Compact
// rebuilds posting lists to reclaim space once enough deletions accumulate.
//
// Pooled query scratch survives mutations: every buffer is sized (or grown)
// from the live data set at the start of each query.
//
// These methods must not be called concurrently with Search or each other.

// Add inserts a new data point and returns its id. The pivot set is fixed
// at construction time, so additions cost exactly m distance computations,
// like any other point at build time.
func (na *NAPP[T]) Add(x T) uint32 {
	id := uint32(len(na.data))
	na.data = append(na.data, x)
	order := na.pivots.Order(x, nil)
	for _, p := range order[:na.opts.NumPivotIndex] {
		na.postings[p] = append(na.postings[p], id)
	}
	return id
}

// Delete tombstones the given id. The point stops appearing in results
// immediately; its posting entries are reclaimed by Compact.
func (na *NAPP[T]) Delete(id uint32) error {
	if int(id) >= len(na.data) {
		return fmt.Errorf("core: delete of unknown id %d (have %d points)", id, len(na.data))
	}
	if na.deleted == nil {
		na.deleted = make(map[uint32]struct{})
	}
	na.deleted[id] = struct{}{}
	return nil
}

// Deleted reports whether id is tombstoned.
func (na *NAPP[T]) Deleted(id uint32) bool {
	_, ok := na.deleted[id]
	return ok
}

// Live returns the number of non-deleted points.
func (na *NAPP[T]) Live() int { return len(na.data) - len(na.deleted) }

// Compact removes tombstoned ids from all posting lists. Ids are not
// renumbered — result ids remain stable positions into the grown data slice.
func (na *NAPP[T]) Compact() {
	if len(na.deleted) == 0 {
		return
	}
	for p, list := range na.postings {
		kept := list[:0]
		for _, id := range list {
			if _, dead := na.deleted[id]; !dead {
				kept = append(kept, id)
			}
		}
		na.postings[p] = kept
	}
	// The tombstone set stays: data slots of deleted points still exist,
	// so Deleted() and Live() must keep answering correctly. Posting
	// lists no longer yield tombstoned ids, so searches pay nothing.
}
