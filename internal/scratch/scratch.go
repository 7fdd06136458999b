// Package scratch is the query-scratch subsystem behind the allocation-free
// search hot path: epoch-stamped arenas that replace a per-query O(N) memset
// or make, and a typed pool of per-query scratch states.
//
// # Epoch stamping
//
// Several methods keep one cell per data point that must read as zero at the
// start of every query: OMEDRANK's quorum counts and the PP-index's
// seen-set across tree copies (Counters), the MI-file's Footrule gains
// (Gains), the graphs' visited sets (Marks). At serving rates clearing all N
// cells — or worse, a fresh make([]...) — dominates cheap filtering work and
// feeds the garbage collector. An epoch-stamped arena makes the reset O(1):
// every cell carries the epoch of the query that last wrote it, a cell whose
// stamp differs from the arena's current epoch reads as zero, and starting a
// new query is a single epoch increment. The full clear only happens when
// the epoch counter itself wraps — once every 2^24 queries for the packed
// Counters, 2^32 for Gains and Marks — so its amortized cost is nil.
//
// NAPP's ScanCount (§2.3) no longer counts in an arena: it adds posting
// bitmaps into bit-sliced counter planes that live on the query's stack
// (internal/core/napp_scan.go) and has nothing to reset.
//
// # Ownership rules
//
// Arenas and scratch states are single-goroutine: exactly one query may use
// an arena at a time, and a Begin invalidates all reads of the previous
// query. Indexes obtain a scratch state per query from a Pool (index.Pooled;
// concurrent searches each get their own), so the state never crosses
// goroutines while in use. See the README's Performance section for the
// full ownership story.
package scratch

import "sync"

// counterEpochBits is how many bits of a Counters cell hold the epoch; the
// remaining low 8 bits hold the count.
const counterEpochBits = 24

// counterEpochMax is the largest epoch representable in a Counters cell.
const counterEpochMax = 1<<counterEpochBits - 1

// Counters is an epoch-stamped arena of 8-bit counters — OMEDRANK's quorum
// counts, the PP-index's seen-set: cell i packs (epoch << 8) | count into a
// uint32. A query calls Begin once, then Inc as it merges id lists; cells
// last written by an earlier query read as zero without ever being cleared.
// Counts saturate at 255, so a caller whose threshold must fire on exact
// equality (OMEDRANK's quorum) caps its increments per id at 255 (the voter
// count).
//
// The zero value is ready to use. Not safe for concurrent use.
type Counters struct {
	cells []uint32
	epoch uint32
}

// Begin readies the arena for a new query over ids in [0, n): it grows the
// arena if needed and advances the epoch, logically zeroing every counter in
// O(1). On epoch wrap-around (once per 2^24 queries) the arena is cleared
// eagerly — the one memset the stamping scheme cannot elide.
func (c *Counters) Begin(n int) {
	if cap(c.cells) < n {
		// Fresh cells are zero: epoch 0, which the post-increment epoch
		// below never equals, so they correctly read as stale.
		c.cells = make([]uint32, n)
	}
	c.cells = c.cells[:n]
	c.epoch++
	if c.epoch > counterEpochMax {
		// Clear the full capacity, not just the current window: a
		// smaller n here must not let cells beyond it keep pre-wrap
		// stamps that a later, larger Begin would re-expose.
		clear(c.cells[:cap(c.cells)])
		c.epoch = 1
	}
}

// Inc increments the counter of id and returns the new count. The count
// saturates at 255 instead of carrying into the epoch bits.
func (c *Counters) Inc(id uint32) uint8 {
	cell := c.cells[id]
	if cell>>8 != c.epoch {
		cell = c.epoch << 8
	}
	if uint8(cell) == 255 {
		return 255
	}
	cell++
	c.cells[id] = cell
	return uint8(cell)
}

// Epoch exposes the current epoch so tests can force a wrap; production
// callers have no use for it.
func (c *Counters) Epoch() uint32 { return c.epoch }

// SetEpoch forces the epoch counter, for wrap-around tests only.
func (c *Counters) SetEpoch(e uint32) { c.epoch = e }

// Gains is the epoch-stamped arena for accumulators wider than a byte — the
// MI-file's per-point Footrule gain, which grows up to ms*m and cannot share
// a cell with its stamp. Stamps and values live in parallel slices: a value
// whose stamp differs from the current epoch reads as zero.
//
// The zero value is ready to use. Not safe for concurrent use.
type Gains struct {
	stamp []uint32
	val   []int32
	epoch uint32
}

// Begin readies the arena for a new query over ids in [0, n), logically
// zeroing every value in O(1). The stamp array is cleared eagerly only when
// the 32-bit epoch wraps.
func (g *Gains) Begin(n int) {
	if cap(g.stamp) < n {
		g.stamp = make([]uint32, n)
		g.val = make([]int32, n)
	}
	g.stamp = g.stamp[:n]
	g.val = g.val[:n]
	g.epoch++
	if g.epoch == 0 {
		// Full capacity for the same reason as Counters.Begin: stale
		// stamps beyond a temporarily smaller n must not survive the
		// wrap.
		clear(g.stamp[:cap(g.stamp)])
		g.epoch = 1
	}
}

// Add accumulates delta into the value of id and returns the new total,
// plus whether this was the first touch of id in the current query.
func (g *Gains) Add(id uint32, delta int32) (total int32, first bool) {
	if g.stamp[id] != g.epoch {
		g.stamp[id] = g.epoch
		g.val[id] = delta
		return delta, true
	}
	g.val[id] += delta
	return g.val[id], false
}

// Get returns the accumulated value of id (zero if untouched this query).
func (g *Gains) Get(id uint32) int32 {
	if g.stamp[id] != g.epoch {
		return 0
	}
	return g.val[id]
}

// Epoch exposes the current epoch for wrap-around tests.
func (g *Gains) Epoch() uint32 { return g.epoch }

// SetEpoch forces the epoch counter, for wrap-around tests only.
func (g *Gains) SetEpoch(e uint32) { g.epoch = e }

// Marks is the epoch-stamped arena for plain visited sets — the graph
// methods' per-query visited []bool, reset in O(1) instead of a per-query
// make or memset. A cell is "marked" when its stamp equals the current
// epoch.
//
// The zero value is ready to use. Not safe for concurrent use.
type Marks struct {
	stamp []uint32
	epoch uint32
}

// Begin readies the arena for a new query over ids in [0, n), logically
// unmarking every id in O(1). The stamp array is cleared eagerly only when
// the 32-bit epoch wraps.
func (m *Marks) Begin(n int) {
	if cap(m.stamp) < n {
		m.stamp = make([]uint32, n)
	}
	m.stamp = m.stamp[:n]
	m.epoch++
	if m.epoch == 0 {
		// Full capacity for the same reason as Counters.Begin: stale
		// stamps beyond a temporarily smaller n must not survive the
		// wrap.
		clear(m.stamp[:cap(m.stamp)])
		m.epoch = 1
	}
}

// TrySet marks id and reports whether it was unmarked before — the
// test-and-set a graph traversal runs per neighbor.
func (m *Marks) TrySet(id uint32) bool {
	if m.stamp[id] == m.epoch {
		return false
	}
	m.stamp[id] = m.epoch
	return true
}

// Has reports whether id is marked in the current query.
func (m *Marks) Has(id uint32) bool { return m.stamp[id] == m.epoch }

// Epoch exposes the current epoch for wrap-around tests.
func (m *Marks) Epoch() uint32 { return m.epoch }

// SetEpoch forces the epoch counter, for wrap-around tests only.
func (m *Marks) SetEpoch(e uint32) { m.epoch = e }

// Pool is a typed free list of per-query scratch states, one Pool per index
// instance. Get returns a state exclusively to the caller; Put recycles it.
// States are stored by pointer and returned whole, so buffer capacity grown
// by one query is preserved for the next — putting back a re-sliced prefix
// (the capacity leak the old NAPP counter pool had) is impossible by
// construction.
//
// The zero value is ready to use.
type Pool[S any] struct {
	p sync.Pool
}

// Get hands out an idle scratch state, allocating a zero one when the pool
// is empty. The state is owned by the caller until Put.
func (p *Pool[S]) Get() *S {
	if v := p.p.Get(); v != nil {
		return v.(*S)
	}
	return new(S)
}

// Put recycles a state obtained from Get. The caller must not retain it.
func (p *Pool[S]) Put(s *S) { p.p.Put(s) }

// Grow returns buf with length n, reusing its capacity when possible. The
// contents of the returned slice are unspecified — callers overwrite every
// element. It is the capacity-preserving resize used by scratch states for
// their plain (non-stamped) per-query buffers.
func Grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
