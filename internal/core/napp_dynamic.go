package core

import "fmt"

// Dynamic maintenance. §3.5 of the paper argues that inverted-file
// permutation indexes are database-friendly partly because "deletion and
// addition of records can be easily implemented"; this file implements that
// claim for NAPP.
//
// Add selects the new point's mi closest pivots and sets its bit in their
// bitmaps; only those bitmaps grow when the id opens a new word, the others
// read as zero past their end. Delete sets a bit in the tombstone bitmap,
// which the scan masks out of every candidate word, and Compact clears the
// tombstoned bits from the posting bitmaps.
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
	s := na.Scratch.Get()
	defer na.Scratch.Put(s)
	for _, p := range na.pivots.ClosestWith(&s.filter.perm, x, na.opts.NumPivotIndex) {
		na.bitmaps[p] = setBit(na.bitmaps[p], id)
	}
	return id
}

// Delete tombstones the given id. The point stops appearing in results
// immediately; its posting entries are reclaimed by Compact.
func (na *NAPP[T]) Delete(id uint32) error {
	if int(id) >= len(na.data) {
		return fmt.Errorf("core: delete of unknown id %d (have %d points)", id, len(na.data))
	}
	if !na.Deleted(id) {
		na.dead = setBit(na.dead, id)
		na.ndead++
	}
	return nil
}

// Deleted reports whether id is tombstoned.
func (na *NAPP[T]) Deleted(id uint32) bool {
	w := int(id >> 6)
	return w < len(na.dead) && na.dead[w]>>(id&63)&1 == 1
}

// Live returns the number of non-deleted points.
func (na *NAPP[T]) Live() int { return len(na.data) - na.ndead }

// Compact removes tombstoned ids from all posting bitmaps. Ids are not
// renumbered — result ids remain stable positions into the grown data slice.
// The tombstone bitmap stays: data slots of deleted points still exist, so
// Deleted() and Live() must keep answering correctly.
func (na *NAPP[T]) Compact() {
	for _, b := range na.bitmaps {
		for w := range b[:min(len(b), len(na.dead))] {
			b[w] &^= na.dead[w]
		}
	}
}
