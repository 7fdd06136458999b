package space

import (
	"time"

	"repro/internal/obs"
	"repro/internal/scratch"
	"repro/internal/topk"
)

// Counts is a string's composition: how many of its bytes fall in each of
// four classes, byte c in class (c>>1)&3, which keeps A, C, G and T apart.
// One edit moves at most one byte into a class and at most one out of one:
// a substitution does both, an insertion the first, a deletion the second.
// So the class surplus P of a over b and the deficit N each need an edit
// apiece, and EditDistance(a, b) ≥ max(P, N) = (Σ|Δcount| + |Δlen|) / 2 —
// a lower bound that costs four subtractions per pair.
type Counts [4]uint32

// countsOf returns s's composition.
func countsOf(s []byte) Counts {
	var c Counts
	for _, b := range s {
		c[(b>>1)&3]++
	}
	return c
}

// CountTable returns the composition of every string of data when sp is
// exactly Levenshtein or NormalizedLevenshtein, and nil for any other space —
// a wrapper that embeds either included, as in Many. It is the per-object
// state Closest screens with: 16 bytes an object, built in one pass over the
// bytes.
func CountTable[T any](sp Space[T], data []T) []Counts {
	switch any(sp).(type) {
	case Levenshtein, NormalizedLevenshtein:
	default:
		return nil
	}
	strs := any(data).([][]byte)
	out := make([]Counts, len(strs))
	for i, s := range strs {
		out[i] = countsOf(s)
	}
	return out
}

// editBound is the composition bound of the strings whose compositions are
// a and b: an integer ≤ their EditDistance. Branch-free, as it runs once per
// screened item.
func editBound(a, b *Counts) int {
	d0 := int64(a[0]) - int64(b[0])
	d1 := int64(a[1]) - int64(b[1])
	d2 := int64(a[2]) - int64(b[2])
	d3 := int64(a[3]) - int64(b[3])
	return int((abs64(d0) + abs64(d1) + abs64(d2) + abs64(d3) + abs64(d0+d1+d2+d3)) >> 1)
}

func abs64(x int64) int64 {
	m := x >> 63
	return (x ^ m) - m
}

// scaled is the float64 a Levenshtein space reports for the integer d
// between strings whose longer one has l bytes: d itself, or d / l when norm
// is set (0 for two empty strings), as NormalizedLevenshtein.Distance
// divides. Division is monotone, so a bound ≤ d stays ≤ the distance after
// scaling, bit for bit.
func scaled(d int, norm bool, l int) float64 {
	if norm && l > 0 {
		return float64(d) / float64(l)
	}
	return float64(d)
}

// screenBuckets is the number of buckets Closest sorts items into by their
// integer bound; larger bounds share the last one. The visiting order only
// decides how soon the queue tightens, never the answer.
const screenBuckets = 64

// Closest pushes into q — reset by the caller — what pushing every
// (ids[i], sp.Distance(data[ids[i]], query)) would leave there, and returns
// the number of distances it measured. It is the one k-nearest step of every
// index kind: Nearest's (the permutation methods' refine, the sequential
// scan, the mutable tier's runs and MPLSH's candidates), a VP-tree leaf's,
// which prunes on the queue between leaves, and the pivot screen's
// (internal/permutation); a graph expansion, which also feeds its frontier,
// calls Many. When sp is exactly Levenshtein or
// NormalizedLevenshtein (the rule of Many) and counts is CountTable(sp,
// data), it measures only the items a bound cannot rule out; for any other
// space, or with a nil counts, it measures every item in one Many call and
// pushes each.
//
// The screened items are visited in counting-sort order of their
// composition bound (Counts), so the likely nearest fill the queue first. An
// item whose bound, scaled as its distance would be, is strictly greater
// than the full queue's worst kept distance is skipped: its distance is
// larger than those of k items already kept, so it is not among the k
// smallest (by distance, then id) of all the items, and the queue keeps
// exactly those. The survivors are measured two per pass (editPair) against
// the query prepared once; a query that is empty or longer than one word is
// measured by EditDistance. The distances pushed are the bits Distance
// returns.
func Closest[T any](sp Space[T], s *Scratch, q *topk.Queue, query T, data []T, counts []Counts, ids []uint32) int {
	if counts != nil {
		switch any(sp).(type) {
		case NormalizedLevenshtein, Levenshtein:
			norm := any(sp) == any(NormalizedLevenshtein{})
			return s.editClosest(q, norm, any(query).([]byte), any(data).([][]byte), counts, ids)
		}
	}
	s.dists = scratch.Grow(s.dists, len(ids))
	Many(sp, s, s.dists, query, data, ids)
	for i, id := range ids {
		q.Push(id, s.dists[i])
	}
	return len(ids)
}

// Nearest appends to dst the k nearest of the items ids to query, ordered by
// (distance, id): one Closest call into a queue the scratch holds, so the
// answer depends neither on the order of ids nor on the screen. ids must be
// unique; a full scan passes s.Every(len(data)), and an empty ids answers
// nothing. It is the exact refine of every filter-and-refine index and the
// whole of an exact scan. A warm call with a dst of sufficient capacity does
// not allocate.
//
// When tr is non-nil the distances measured count as RefineDistances, Closest
// is timed as refine and the ordered copy-out as merge (one clock read per
// stage, nothing per item).
func Nearest[T any](sp Space[T], s *Scratch, dst []topk.Neighbor, query T, data []T, counts []Counts, ids []uint32, k int, tr *obs.QueryTrace) []topk.Neighbor {
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	s.queue.Reset(k)
	measured := Closest(sp, s, &s.queue, query, data, counts, ids)
	if tr != nil {
		tr.RefineDistances += int64(measured)
		obs.AddSince(&tr.RefineNs, t0)
		t0 = time.Now()
	}
	dst = s.queue.AppendResults(dst)
	if tr != nil {
		obs.AddSince(&tr.MergeNs, t0)
	}
	return dst
}

// editClosest is Closest's Levenshtein body.
func (s *Scratch) editClosest(q *topk.Queue, norm bool, pat []byte, texts [][]byte, counts []Counts, ids []uint32) int {
	m := len(pat)
	pc := countsOf(pat)
	// Bound every item once, then place them bucket by bucket.
	s.bounds = scratch.Grow(s.bounds, len(ids))
	var start [screenBuckets + 1]int32
	for i, id := range ids {
		b := editBound(&pc, &counts[id])
		s.bounds[i] = uint32(b)
		start[min(b, screenBuckets-1)+1]++
	}
	for b := 1; b <= screenBuckets; b++ {
		start[b] += start[b-1]
	}
	s.visit = scratch.Grow(s.visit, len(ids))
	for i, b := range s.bounds {
		k := min(b, screenBuckets-1)
		s.visit[start[k]] = uint32(i)
		start[k]++
	}

	var peq *[256]uint64
	if m >= 1 && m <= 64 {
		peq = s.prepare(pat)
	}
	// push offers one measured item; a distance above the full queue's worst
	// is turned away without the call.
	worst, full := q.Bound()
	push := func(i uint32, d int, t []byte) {
		if dist := scaled(d, norm, max(len(t), m)); (!full || dist <= worst) && q.Push(ids[i], dist) {
			worst, full = q.Bound()
		}
	}
	measured := 0
	held, hasHeld := uint32(0), false // a survivor waiting for a second
	for _, i := range s.visit {
		t := texts[ids[i]]
		if full && scaled(int(s.bounds[i]), norm, max(len(t), m)) > worst {
			continue
		}
		switch {
		case peq == nil:
			push(i, EditDistance(t, pat), t)
			measured++
		case !hasHeld:
			held, hasHeld = i, true
		default:
			h := texts[ids[held]]
			dh, dt := editPair(peq, m, h, t)
			push(held, dh, h)
			push(i, dt, t)
			measured += 2
			hasHeld = false
		}
	}
	if hasHeld {
		h := texts[ids[held]]
		dh, _ := editPair(peq, m, h, nil)
		push(held, dh, h)
		measured++
	}
	return measured
}
