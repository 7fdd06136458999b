package permutation

import "repro/internal/space"

// editScreen is the composition screen of pivots under exactly
// space.Levenshtein or space.NormalizedLevenshtein: ClosestWith(s, x, n) for
// 0 < n < m that measures only the pivots it cannot rule out.
type editScreen[T any] struct {
	sp     space.Space[T]
	items  []T
	counts []space.Counts // the pivots' compositions
}

// newEditScreen returns the screen of items, or nil when sp has none. The
// screen is chosen by exact concrete type, as in space.ManyFrom: a type that
// embeds a Levenshtein to override Distance (a space.Counter, a test gate)
// gets no screen, so every one of its calls still goes through its Distance.
// It holds the pivots' compositions (space.CountTable), 16 bytes a pivot.
func newEditScreen[T any](sp space.Space[T], items []T) *editScreen[T] {
	counts := space.CountTable(sp, items)
	if counts == nil {
		return nil
	}
	return &editScreen[T]{sp: sp, items: items, counts: counts}
}

// closest selects through space.Closest, whose queue keeps the n smallest
// (distance, pivot index) pairs — ClosestWith's selection — while it skips
// every pivot whose composition bound exceeds the n-th distance found so
// far; every pivot is a candidate. It fills s.Order and s.Measured and
// leaves s.Dists as it was.
func (sc *editScreen[T]) closest(s *Scratch, x T, n int) {
	s.upper.Reset(n)
	s.Measured = space.Closest(sc.sp, &s.sp, &s.upper, x, sc.items, sc.counts, s.sp.Every(len(sc.items)))
	s.sel = s.upper.AppendResults(s.sel[:0])
	s.Order = s.Order[:0]
	for _, c := range s.sel {
		s.Order = append(s.Order, int32(c.ID))
	}
}
