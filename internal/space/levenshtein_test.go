package space

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// editDistanceDP is the textbook two-row dynamic program, O(len(a)*len(b)):
// the oracle EditDistance's bit-parallel kernel is held to.
func editDistanceDP(a, b []byte) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	row := make([]int, len(b)+1)
	for j := range row {
		row[j] = j
	}
	for i := 1; i <= len(a); i++ {
		prev := row[0] // row[i-1][j-1]
		row[0] = i
		for j := 1; j <= len(b); j++ {
			cur := row[j]
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			best := prev + cost            // substitution
			if d := row[j] + 1; d < best { // deletion
				best = d
			}
			if d := row[j-1] + 1; d < best { // insertion
				best = d
			}
			row[j] = best
			prev = cur
		}
	}
	return row[len(b)]
}

// randBytes draws n bytes from an alphabet of the given size (2 and 4 spell
// DNA-like strings whose matches are dense; 256 makes matches rare).
func randBytes(r *rand.Rand, n, alphabet int) []byte {
	letters := []byte("ACGT")
	s := make([]byte, n)
	for i := range s {
		if alphabet <= len(letters) {
			s[i] = letters[r.Intn(alphabet)]
		} else {
			s[i] = byte(r.Intn(alphabet))
		}
	}
	return s
}

// mutate applies up to maxEdits random substitutions, insertions and
// deletions to a copy of s.
func mutate(r *rand.Rand, s []byte, maxEdits, alphabet int) []byte {
	out := append([]byte(nil), s...)
	for e := r.Intn(maxEdits + 1); e > 0; e-- {
		c := randBytes(r, 1, alphabet)[0]
		switch op := r.Intn(3); {
		case op == 0 && len(out) > 0:
			out[r.Intn(len(out))] = c
		case op == 1 && len(out) > 0:
			i := r.Intn(len(out))
			out = append(out[:i], out[i+1:]...)
		default:
			i := r.Intn(len(out) + 1)
			out = append(out[:i], append([]byte{c}, out[i:]...)...)
		}
	}
	return out
}

// checkAgainstDP holds EditDistance to the oracle in both argument orders.
func checkAgainstDP(t *testing.T, a, b []byte) {
	t.Helper()
	want := editDistanceDP(a, b)
	if got := EditDistance(a, b); got != want {
		t.Fatalf("EditDistance(%q, %q) = %d, DP says %d", a, b, got, want)
	}
	if got := EditDistance(b, a); got != want {
		t.Fatalf("EditDistance(%q, %q) = %d (swapped), DP says %d", b, a, got, want)
	}
}

// TestEditDistanceMatchesDP sweeps the kernel's word boundaries: pattern
// lengths on either side of one, two and three 64-bit blocks, dense and
// sparse match tables, and the shapes the trim and the block hand-over see.
func TestEditDistanceMatchesDP(t *testing.T) {
	lengths := []int{0, 1, 2, 63, 64, 65, 127, 128, 129, 200}
	r := rand.New(rand.NewSource(24))
	for _, alphabet := range []int{2, 4, 256} {
		for _, la := range lengths {
			t.Run(fmt.Sprintf("alphabet%d/len%d", alphabet, la), func(t *testing.T) {
				a := randBytes(r, la, alphabet)
				for _, lb := range lengths {
					checkAgainstDP(t, a, randBytes(r, lb, alphabet)) // random pair
					// A shared prefix and suffix around the pair: the trim
					// moves the pattern's length across a block boundary.
					pre, suf := randBytes(r, r.Intn(70), alphabet), randBytes(r, r.Intn(70), alphabet)
					wrap := func(mid []byte) []byte {
						return append(append(append([]byte(nil), pre...), mid...), suf...)
					}
					checkAgainstDP(t, wrap(a), wrap(randBytes(r, lb, alphabet)))
				}
				for i := 0; i < 8; i++ {
					checkAgainstDP(t, a, mutate(r, a, 5, alphabet)) // near-copy
				}
				checkAgainstDP(t, a, append([]byte(nil), a...)) // identical
				checkAgainstDP(t, a, nil)                       // one empty
			})
		}
	}
}

// FuzzEditDistance lets the fuzzer pick the strings: the kernel must return
// the oracle's integer for (a, b), symmetrically, inside the bounds any edit
// distance obeys; and when a is 1–64 bytes, a as a prepared pattern must give
// the oracle's integers against b and c, measured as a pair in either order
// and one at a time, whatever their lengths, and against b, c and two of
// their slices on every arm the host runs: the four-lane pass (AVX2) and
// editGroup, the dispatched arm, for groups of one to editLanes.
func FuzzEditDistance(f *testing.F) {
	r := rand.New(rand.NewSource(25))
	f.Add([]byte("kitten"), []byte("sitting"), []byte("sit"))
	f.Add([]byte{}, []byte("ACGT"), []byte{})
	for _, n := range []int{32, 64, 65, 130, 200} {
		a := randBytes(r, n, 4)
		f.Add(a, mutate(r, a, 5, 4), randBytes(r, n+7, 256))
		f.Add(a, randBytes(r, n/2+1, 4), []byte{})
	}
	f.Add([]byte("G"), randBytes(r, 70, 4), []byte("A"))
	f.Add(randBytes(r, 63, 256), randBytes(r, 3, 256), randBytes(r, 130, 256))
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		const maxLen = 320 // five blocks; keeps the quadratic oracle cheap
		a, b, c = a[:min(len(a), maxLen)], b[:min(len(b), maxLen)], c[:min(len(c), maxLen)]
		d := EditDistance(a, b)
		if want := editDistanceDP(a, b); d != want {
			t.Fatalf("EditDistance(%q, %q) = %d, DP says %d", a, b, d, want)
		}
		if rev := EditDistance(b, a); rev != d {
			t.Fatalf("EditDistance(%q, %q) = %d but %d swapped", a, b, d, rev)
		}
		lo, hi := len(a)-len(b), max(len(a), len(b))
		if lo < 0 {
			lo = -lo
		}
		if d < lo || d > hi {
			t.Fatalf("EditDistance(%q, %q) = %d outside [%d, %d]", a, b, d, lo, hi)
		}
		m := len(a)
		if m == 0 || m > 64 {
			return
		}
		var s Scratch
		s.prepare(c) // a stale table must not leak into the next pattern
		peq := s.prepare(a)
		wb, wc := d, editDistanceDP(a, c)
		if gb, gc := editPair(peq, m, b, c); gb != wb || gc != wc {
			t.Fatalf("pattern %q: editPair(%q, %q) = %d, %d, DP says %d, %d", a, b, c, gb, gc, wb, wc)
		}
		if gc, gb := editPair(peq, m, c, b); gb != wb || gc != wc {
			t.Fatalf("pattern %q: editPair(%q, %q) = %d, %d, DP says %d, %d", a, c, b, gc, gb, wc, wb)
		}
		if gb, _ := editPair(peq, m, b, nil); gb != wb {
			t.Fatalf("pattern %q: editPair(%q, nil) = %d, DP says %d", a, b, gb, wb)
		}
		// The four-lane pass, where the host runs it, on b, c and two of
		// their slices; then editGroup, the dispatched arm, on the first n.
		texts := [4][]byte{b, c, c[:len(c)/2], b[len(b)/3:]}
		want := [4]int{wb, wc, editDistanceDP(a, texts[2]), editDistanceDP(a, texts[3])}
		if quadPass || !quadAsm {
			g := texts
			if got := editQuad(peq, m, &g); got != want {
				t.Fatalf("pattern %q: editQuad(%q) = %v, DP says %v", a, texts, got, want)
			}
		}
		for n := 1; n <= editLanes(); n++ {
			g := texts
			got := editGroup(peq, m, &g, n)
			if !slices.Equal(got[:n], want[:n]) {
				t.Fatalf("pattern %q: editGroup(%q, %d) = %v, DP says %v", a, texts, n, got[:n], want[:n])
			}
		}
	})
}

// TestEditDistanceAllocs pins the kernel's memory contract: a pattern (the
// shorter string) of at most 64 bytes is one word on the stack however long
// the text, a longer one allocates only its horizontal-delta row.
func TestEditDistanceAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	for _, c := range []struct{ pattern, text, maxAllocs int }{
		{1, 1, 0}, {32, 32, 0}, {32, 48, 0}, {64, 64, 0}, {64, 4000, 0},
		{65, 65, 1}, {200, 200, 1}, {129, 4000, 1},
	} {
		// Alphabet 256 with distinct end bytes: the trim removes nothing, so
		// the kernel sees the lengths the row names.
		a, b := randBytes(r, c.text, 256), randBytes(r, c.pattern, 256)
		a[0], a[len(a)-1], b[0], b[len(b)-1] = 'a', 'a', 'b', 'b'
		var sink int
		if avg := testing.AllocsPerRun(20, func() { sink += EditDistance(a, b) }); avg > float64(c.maxAllocs) {
			t.Errorf("pattern %d, text %d: %v allocs per call, want <= %d", c.pattern, c.text, avg, c.maxAllocs)
		}
		_ = sink
	}
}

// TestEditQuadMatchesDP holds the four-lane pass to the oracle and to
// editPair, lane by lane: patterns of 1, 2, 31–33 and 63–64 bytes, over ACGT
// and over all 256 byte values, against four texts of every length from 0 to
// 100 bytes in each lane — beside three lengths drawn at random, four equal
// lengths, and mixes past one word — and one mix of four distinct lengths in
// all 24 lane orders, so every lane finishes first, second, third and last.
func TestEditQuadMatchesDP(t *testing.T) {
	if quadAsm && !quadPass {
		t.Skip("the four-lane pass needs AVX2")
	}
	r := rand.New(rand.NewSource(27))
	var s Scratch
	for _, m := range []int{1, 2, 31, 32, 33, 63, 64} {
		for _, alphabet := range []int{4, 256} {
			pat := randBytes(r, m, alphabet)
			peq := s.prepare(pat)
			check := func(g [4][]byte) {
				t.Helper()
				orig := g
				d := editQuad(peq, m, &g)
				for i := range g {
					if !bytes.Equal(g[i], orig[i]) {
						t.Fatalf("pattern %q: editQuad modified its texts", pat)
					}
				}
				for i, txt := range g {
					want := editDistanceDP(pat, txt)
					if pair, _ := editPair(peq, m, txt, nil); d[i] != want || pair != want {
						t.Fatalf("pattern %q: lane %d of %d-byte texts %q: editQuad %d, editPair %d, DP %d",
							pat, i, len(txt), g, d[i], pair, want)
					}
				}
			}
			for n := 0; n <= 100; n++ {
				for lane := range 4 {
					var g [4][]byte
					for j := range g {
						g[j] = mutate(r, randBytes(r, r.Intn(101), alphabet), 3, alphabet)
					}
					g[lane] = randBytes(r, n, alphabet)
					check(g)
				}
				// Equal lengths: one segment for all four.
				check([4][]byte{randBytes(r, n, alphabet), randBytes(r, n, alphabet),
					randBytes(r, n, alphabet), randBytes(r, n, alphabet)})
				same := randBytes(r, n, alphabet)
				check([4][]byte{same, same, same, same})
			}
			mix := [4][]byte{{}, mutate(r, pat, 3, alphabet), randBytes(r, 65, alphabet), randBytes(r, 100, alphabet)}
			permute(0, &mix, check)
		}
	}
}

// permute calls f with every order of g[k:] after g[:k].
func permute(k int, g *[4][]byte, f func([4][]byte)) {
	if k == len(g) {
		f(*g)
		return
	}
	for i := k; i < len(g); i++ {
		g[k], g[i] = g[i], g[k]
		permute(k+1, g, f)
		g[k], g[i] = g[i], g[k]
	}
}
