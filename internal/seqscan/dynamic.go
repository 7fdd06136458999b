package seqscan

import "fmt"

// Dynamic maintenance, mirroring core/napp_dynamic.go. A sequential scanner
// has no derived structure, so additions are a plain append and deletions are
// a tombstone the scan loop skips. This is what lets the scanner back the
// always-mutable memtable of an LSM tier (internal/lsm) for every space.
//
// These methods must not be called concurrently with Search or each other.

// Add inserts a new data point and returns its id (its position in the
// grown data slice).
func (s *Scanner[T]) Add(x T) uint32 {
	id := uint32(len(s.data))
	s.data = append(s.data, x)
	return id
}

// Delete tombstones the given id. The point stops appearing in results
// immediately.
func (s *Scanner[T]) Delete(id uint32) error {
	if int(id) >= len(s.data) {
		return fmt.Errorf("seqscan: delete of unknown id %d (have %d points)", id, len(s.data))
	}
	if s.deleted == nil {
		s.deleted = make(map[uint32]struct{})
	}
	s.deleted[id] = struct{}{}
	return nil
}

// Deleted reports whether id is tombstoned.
func (s *Scanner[T]) Deleted(id uint32) bool {
	_, ok := s.deleted[id]
	return ok
}

// Live returns the number of non-deleted points.
func (s *Scanner[T]) Live() int { return len(s.data) - len(s.deleted) }
