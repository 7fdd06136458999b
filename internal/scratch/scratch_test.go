package scratch

import (
	"testing"
)

func TestCounters_BasicLifecycle(t *testing.T) {
	var c Counters
	c.Begin(8)
	for i := 0; i < 5; i++ {
		if got, want := c.Inc(3), uint8(i+1); got != want {
			t.Fatalf("Inc %d returned %d, want %d", i, got, want)
		}
	}
	c.Inc(7)
	if got := c.Inc(3); got != 6 {
		t.Fatalf("Inc(3) after an Inc(7) = %d, want 6", got)
	}

	// A new query logically zeroes everything without touching cells.
	c.Begin(8)
	for id := uint32(0); id < 8; id++ {
		if got := c.Inc(id); got != 1 {
			t.Fatalf("after Begin, first Inc(%d) = %d, want 1", id, got)
		}
	}
}

func TestCounters_GrowPreservesEpoch(t *testing.T) {
	var c Counters
	c.Begin(4)
	c.Inc(1)
	// Growing the arena mid-stream (Add grew the corpus) must not let the
	// zero-valued new cells read as live counts.
	c.Begin(16)
	for id := uint32(0); id < 16; id++ {
		if got := c.Inc(id); got != 1 {
			t.Fatalf("after grow, first Inc(%d) = %d, want 1", id, got)
		}
	}
}

func TestCounters_SaturatesAt255(t *testing.T) {
	var c Counters
	c.Begin(1)
	var got uint8
	for i := 0; i < 300; i++ {
		got = c.Inc(0)
	}
	if got != 255 {
		t.Fatalf("300th Inc = %d, want saturated 255", got)
	}
	// Saturation must not carry into the epoch bits: the next query still
	// starts from zero.
	c.Begin(1)
	if got := c.Inc(0); got != 1 {
		t.Fatalf("after Begin, first Inc(0) = %d, want 1", got)
	}
}

// TestCounters_EpochWrap simulates the >16M-queries-on-one-arena case (8-bit
// counts leave 24 bits of epoch) by forcing the epoch near its maximum: the
// wrap must eagerly clear the stale cells exactly once, after which old
// stamps — now numerically *ahead* of the restarted epoch — cannot read as
// live.
func TestCounters_EpochWrap(t *testing.T) {
	var c Counters
	c.epoch = counterEpochMax - 2
	for q := 0; q < 6; q++ {
		c.Begin(16)
		// Stamp every cell q+1 times so the next epoch has maximal stale
		// state; a stale cell read as live would overshoot the count.
		for id := uint32(0); id < 16; id++ {
			want := uint8(q + 1)
			var got uint8
			for i := 0; i <= q; i++ {
				got = c.Inc(id)
			}
			if got != want {
				t.Fatalf("query %d (epoch %d): Inc(%d) = %d, want %d", q, c.epoch, id, got, want)
			}
		}
		if c.epoch > counterEpochMax {
			t.Fatalf("epoch %d escaped its %d-bit field", c.epoch, counterEpochBits)
		}
	}
	if c.epoch >= counterEpochMax-2 {
		t.Fatalf("epoch %d did not wrap", c.epoch)
	}
}

// TestCounters_EpochWrapClearsFullCapacity pins the wrap clear to the whole
// backing array: if the arena wraps while serving a smaller n, cells beyond
// that window must not keep pre-wrap stamps that a later, larger Begin
// would re-expose as live counts.
func TestCounters_EpochWrapClearsFullCapacity(t *testing.T) {
	var c Counters
	c.epoch = counterEpochMax - 1
	c.Begin(16) // epoch = max: stamp cells far beyond the next window
	for id := uint32(0); id < 16; id++ {
		c.Inc(id)
	}
	c.Begin(4) // wraps; only ids [0, 4) are in the window
	// Walk the restarted epoch up to the stale stamp value and re-expose
	// the full arena: the high cells must still start from zero.
	c.epoch = counterEpochMax - 1
	c.Begin(16)
	for id := uint32(0); id < 16; id++ {
		if got := c.Inc(id); got != 1 {
			t.Fatalf("first Inc(%d) = %d after wrap at smaller n, want 1", id, got)
		}
	}
}

func TestGains_BasicLifecycle(t *testing.T) {
	var g Gains
	g.Begin(4)
	if got := g.Get(2); got != 0 {
		t.Fatalf("fresh gain = %d, want 0", got)
	}
	if total, first := g.Add(2, 100); total != 100 || !first {
		t.Fatalf("first Add = (%d, %v), want (100, true)", total, first)
	}
	if total, first := g.Add(2, 28); total != 128 || first {
		t.Fatalf("second Add = (%d, %v), want (128, false)", total, first)
	}
	g.Begin(4)
	if got := g.Get(2); got != 0 {
		t.Fatalf("after Begin, Get(2) = %d, want 0", got)
	}
	if total, first := g.Add(2, 7); total != 7 || !first {
		t.Fatalf("Add on new epoch = (%d, %v), want (7, true)", total, first)
	}
}

// TestGains_EpochWrap forces the 32-bit epoch to wrap and checks stale
// values cannot resurface.
func TestGains_EpochWrap(t *testing.T) {
	var g Gains
	g.epoch = ^uint32(0) - 1
	for q := 0; q < 4; q++ {
		g.Begin(8)
		for id := uint32(0); id < 8; id++ {
			if got := g.Get(id); got != 0 {
				t.Fatalf("query %d (epoch %d): Get(%d) = %d, want 0", q, g.epoch, id, got)
			}
			g.Add(id, int32(q+1)*10)
		}
	}
	if g.epoch >= ^uint32(0)-1 {
		t.Fatalf("epoch %d did not wrap", g.epoch)
	}
}

func TestPool_RoundTripPreservesCapacity(t *testing.T) {
	type state struct{ buf []int32 }
	var p Pool[state]
	s := p.Get()
	s.buf = Grow(s.buf, 1000)
	p.Put(s)
	s2 := p.Get()
	// sync.Pool gives no hard guarantee, but single-goroutine Put-then-Get
	// returns the per-P private slot — and the invariant under test is that
	// whatever state comes back, it carries its full capacity.
	if cap(s2.buf) != 0 && cap(s2.buf) < 1000 {
		t.Fatalf("recycled state lost capacity: cap = %d", cap(s2.buf))
	}
}

func TestGrow(t *testing.T) {
	b := Grow[int32](nil, 10)
	if len(b) != 10 {
		t.Fatalf("len = %d, want 10", len(b))
	}
	b2 := Grow(b, 5)
	if len(b2) != 5 || cap(b2) != cap(b) {
		t.Fatalf("shrink did not reuse capacity: len=%d cap=%d (orig cap %d)", len(b2), cap(b2), cap(b))
	}
	b3 := Grow(b2, 20)
	if len(b3) != 20 {
		t.Fatalf("len = %d, want 20", len(b3))
	}
}

// marked reports whether id is marked in m's current query.
func marked(m *Marks, id uint32) bool { return m.stamp[id] == m.epoch }

func TestMarks_BasicLifecycle(t *testing.T) {
	var m Marks
	m.Begin(4)
	if marked(&m, 2) {
		t.Fatal("fresh arena reports id marked")
	}
	if !m.TrySet(2) {
		t.Fatal("first TrySet(2) = false, want true")
	}
	if m.TrySet(2) {
		t.Fatal("second TrySet(2) = true, want false")
	}
	if !marked(&m, 2) || marked(&m, 3) {
		t.Fatalf("after TrySet: marked(2)=%v marked(3)=%v", marked(&m, 2), marked(&m, 3))
	}
	m.Begin(4)
	if marked(&m, 2) {
		t.Fatal("mark survived Begin")
	}
	if !m.TrySet(2) {
		t.Fatal("TrySet on new epoch = false, want true")
	}
}

// TestMarks_EpochWrap forces the 32-bit epoch to wrap and checks stale
// marks cannot resurface.
func TestMarks_EpochWrap(t *testing.T) {
	var m Marks
	m.epoch = ^uint32(0) - 1
	for q := 0; q < 4; q++ {
		m.Begin(8)
		for id := uint32(0); id < 8; id++ {
			if marked(&m, id) {
				t.Fatalf("query %d (epoch %d): id %d marked at query start", q, m.epoch, id)
			}
			if !m.TrySet(id) {
				t.Fatalf("query %d: TrySet(%d) = false on fresh epoch", q, id)
			}
		}
	}
	if m.epoch >= ^uint32(0)-1 {
		t.Fatalf("epoch %d did not wrap", m.epoch)
	}
}

// TestMarks_EpochWrapClearsFullCapacity mirrors the Counters test: a wrap
// while serving a smaller n must clear stamps beyond that window too.
func TestMarks_EpochWrapClearsFullCapacity(t *testing.T) {
	var m Marks
	m.epoch = ^uint32(0) - 1
	m.Begin(16) // epoch = max: stamp cells beyond the next window
	for id := uint32(0); id < 16; id++ {
		m.TrySet(id)
	}
	m.Begin(4) // wraps; only ids [0, 4) are in the window
	m.epoch = ^uint32(0) - 1
	m.Begin(16)
	for id := uint32(0); id < 16; id++ {
		if marked(&m, id) {
			t.Fatalf("id %d marked after wrap at smaller n", id)
		}
	}
}
