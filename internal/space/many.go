package space

import (
	"math"

	"repro/internal/scratch"
	"repro/internal/topk"
	"repro/internal/vecmath"
)

// Scratch is one goroutine's reusable state for Many, ManyFrom, Closest and
// Nearest: the fixed argument widened to float64 for the L2 pair kernel, or
// its match table as a Levenshtein pattern, Closest's bounds and visiting
// order, the distances of the items it does not screen, Nearest's queue and
// the positions Every returns.
// The zero value is ready; a warm Scratch makes every call allocation-free.
// Not safe for concurrent use.
type Scratch struct {
	wide   []float64
	dists  []float64    // Closest: the unscreened items' distances
	peq    *[256]uint64 // allocated on first use: an L2 Scratch stays small
	bounds []uint32     // Closest: item i's composition bound
	visit  []uint32     // Closest: the items' positions, smallest bound first
	queue  topk.Queue   // Nearest: the k kept
	every  []uint32     // Every: 0, 1, …
}

// Every returns the positions 0, 1, …, n-1: the ids of a scan over every item
// of a slice of n. They live in the scratch, grown on demand, and stay valid
// until the next call.
func (s *Scratch) Every(n int) []uint32 {
	for i := len(s.every); i < n; i++ {
		s.every = append(s.every, uint32(i))
	}
	return s.every[:n]
}

// widen stores v as float64 in the scratch and returns it. Widening a
// float32 is exact, so the kernels see the values L2Sqr would convert.
func (s *Scratch) widen(v []float32) []float64 {
	s.wide = scratch.Grow(s.wide, len(v))
	for i, x := range v {
		s.wide[i] = float64(x)
	}
	return s.wide
}

// Many sets dst[i] = sp.Distance(data[ids[i]], query) for every i; dst must
// have room for len(ids) values. The results are bit-identical to that loop,
// which is what every space but L2 and the two Levenshteins runs. For L2 the
// query is widened once and the data points are measured two per pass
// (vecmath.L2SqrPair, AVX2 or SSE2 on amd64), so a refine, a scan, a tree
// leaf or a graph expansion stops re-converting the query per candidate and,
// on amd64, computes four or two lanes per instruction. The candidates are random vectors of a
// corpus larger than the cache, so before measuring a pair the arm asks for
// the vectors prefetchAhead candidates on (vecmath.Prefetch): they arrive from
// memory while the pairs before them are measured, instead of each pair
// waiting on its own two misses. For the two Levenshteins a query of 1–64
// bytes gets its match table built once and the reads are measured two per
// pass (editPair); other queries run the loop.
//
// The fast paths are chosen by the exact concrete type, never by an interface
// a wrapper could promote: a space that embeds L2 to override Distance (a
// Counter, a test gate) keeps every call going through its Distance. Many
// measures every item; a caller that keeps only the k nearest calls Closest,
// which runs Many for it and measures fewer under the two Levenshteins.
func Many[T any](sp Space[T], s *Scratch, dst []float64, query T, data []T, ids []uint32) {
	dst = dst[:len(ids)]
	switch any(sp).(type) {
	case L2:
		q32, vecs := any(query).([]float32), any(data).([][]float32)
		q := s.widen(q32)
		n := len(ids)
		prefetch(vecs, ids[:min(prefetchAhead, n)])
		i := 0
		for ; i+2 <= n; i += 2 {
			prefetch(vecs, ids[min(i+prefetchAhead, n):min(i+prefetchAhead+2, n)])
			a, b := vecmath.L2SqrPair(q, vecs[ids[i]], vecs[ids[i+1]])
			dst[i], dst[i+1] = math.Sqrt(a), math.Sqrt(b)
		}
		if i < n {
			dst[i] = math.Sqrt(vecmath.L2Sqr(vecs[ids[i]], q32))
		}
		return
	case NormalizedLevenshtein, Levenshtein:
		if s.editMany(dst, any(sp) == any(NormalizedLevenshtein{}), any(query).([]byte), any(data).([][]byte), ids) {
			return
		}
	}
	for i, id := range ids {
		dst[i] = sp.Distance(data[id], query)
	}
}

// prefetchAhead is how many candidates ahead of the pair it measures Many's
// L2 arm asks for: far enough that a random corpus vector arrives from memory
// while the pairs before it are measured (4, 8 and 16 measured alike).
const prefetchAhead = 8

// prefetch asks for the vectors vecs[id] of ids, which Many measures next.
func prefetch(vecs [][]float32, ids []uint32) {
	for _, id := range ids {
		vecmath.Prefetch(vecs[id])
	}
}

// ManyFrom sets dst[i] = sp.Distance(x, pivots[i]) for every pivot — x is the
// left (data) argument, as in pivot ranking; dst must have room for
// len(pivots) values. Bit-identical to that loop, with Many's fast paths: for
// L2 the pair kernel measures pivot−x where the loop measures x−pivot, and the
// square of a float64 difference does not depend on its sign; for the
// Levenshteins x is the pattern, and the edit distance is symmetric.
func ManyFrom[T any](sp Space[T], s *Scratch, dst []float64, x T, pivots []T) {
	dst = dst[:len(pivots)]
	switch any(sp).(type) {
	case L2:
		x32, vecs := any(x).([]float32), any(pivots).([][]float32)
		q := s.widen(x32)
		i := 0
		for ; i+2 <= len(vecs); i += 2 {
			a, b := vecmath.L2SqrPair(q, vecs[i], vecs[i+1])
			dst[i], dst[i+1] = math.Sqrt(a), math.Sqrt(b)
		}
		if i < len(vecs) {
			dst[i] = math.Sqrt(vecmath.L2Sqr(x32, vecs[i]))
		}
		return
	case NormalizedLevenshtein, Levenshtein:
		if s.editMany(dst, any(sp) == any(NormalizedLevenshtein{}), any(x).([]byte), any(pivots).([][]byte), nil) {
			return
		}
	}
	for i, pv := range pivots {
		dst[i] = sp.Distance(x, pv)
	}
}

// prepare builds pat's match table in the scratch, bit i of peq[c] set where
// pat[i] == c, and returns it. Bytes past the 64th set nothing.
func (s *Scratch) prepare(pat []byte) *[256]uint64 {
	if s.peq == nil {
		s.peq = new([256]uint64)
	}
	*s.peq = [256]uint64{}
	for i, c := range pat {
		s.peq[c] |= 1 << uint(i)
	}
	return s.peq
}

// editMany is the Levenshtein arm of Many (texts[ids[i]]) and ManyFrom
// (texts[i], ids nil): it prepares pat's match table once and fills dst with
// the edit distances to the texts, divided by the longer length when norm is
// set — the float64 Distance returns. It reports false, touching nothing,
// when pat is empty or longer than one 64-bit word.
func (s *Scratch) editMany(dst []float64, norm bool, pat []byte, texts [][]byte, ids []uint32) bool {
	m := len(pat)
	if m == 0 || m > 64 {
		return false
	}
	peq := s.prepare(pat)
	text := func(i int) []byte {
		if ids == nil {
			return texts[i]
		}
		return texts[ids[i]]
	}
	put := func(i, d int, t []byte) {
		dst[i] = float64(d)
		if norm {
			dst[i] /= float64(max(len(t), m))
		}
	}
	i := 0
	for ; i+2 <= len(dst); i += 2 {
		a, b := text(i), text(i+1)
		da, db := editPair(peq, m, a, b)
		put(i, da, a)
		put(i+1, db, b)
	}
	if i < len(dst) {
		a := text(i)
		da, _ := editPair(peq, m, a, nil)
		put(i, da, a)
	}
	return true
}
