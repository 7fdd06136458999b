package space

import "math/bits"

// NormalizedLevenshtein is the edit distance (insertions, deletions,
// substitutions, unit cost) divided by the length of the longer string. The
// DNA experiments use it over sequences of average length 32.
//
// The normalized variant is non-metric, but as §3.5 of the paper observes,
// triangle violations are rare on realistic data, so it behaves as an
// approximately µ-defective distance with µ = 1.
//
// The edit distance underneath is EditDistance's bit-parallel kernel: a read
// of at most 64 bytes is one machine word, so a distance is a single pass
// over the other string and allocates nothing. In bulk (Many, ManyFrom,
// Closest) a fixed argument of 1–64 bytes is prepared once per call and the
// other strings are measured four per pass where the CPU runs AVX2 (editQuad),
// two per pass elsewhere (editPair).
type NormalizedLevenshtein struct{}

// Distance returns the normalized edit distance between data and query.
// Two empty strings are at distance 0.
func (NormalizedLevenshtein) Distance(data, query []byte) float64 {
	maxLen := len(data)
	if len(query) > maxLen {
		maxLen = len(query)
	}
	if maxLen == 0 {
		return 0
	}
	return float64(EditDistance(data, query)) / float64(maxLen)
}

// Name implements Space.
func (NormalizedLevenshtein) Name() string { return "normleven" }

// Properties implements Space: symmetric, approximately metric but not
// guaranteed, so Metric is left unset and indexes use generic pruning.
func (NormalizedLevenshtein) Properties() Properties { return Properties{Symmetric: true} }

// Levenshtein is the classic (unnormalized) edit distance; it is a true
// metric and is provided for tests and for users who want metric pruning.
type Levenshtein struct{}

// Distance returns the edit distance between data and query.
func (Levenshtein) Distance(data, query []byte) float64 {
	return float64(EditDistance(data, query))
}

// Name implements Space.
func (Levenshtein) Name() string { return "leven" }

// Properties implements Space: the unnormalized edit distance is a metric.
func (Levenshtein) Properties() Properties { return Properties{Metric: true, Symmetric: true} }

// EditDistance computes the Levenshtein distance between a and b with the
// bit-parallel algorithm of Myers (J. ACM 1999) in Hyyrö's global-distance
// form: the shorter string is the pattern, each run of 64 pattern bytes is
// one machine word of vertical deltas, and a word advances past one text
// byte in a constant number of operations — O(⌈min/64⌉·max) time instead of
// the dynamic program's O(min·max), and the same integer.
//
// A pattern of at most 64 bytes (after the common prefix and suffix are
// trimmed) is a single word and allocates nothing; a longer one makes one
// allocation, a byte per text position for the horizontal deltas that thread
// each 64-row block into the one below it.
func EditDistance(a, b []byte) int {
	// Ensure b is the shorter string: it becomes the pattern.
	if len(a) < len(b) {
		a, b = b, a
	}
	// Trim common prefix and suffix; they never contribute edits.
	for len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	for len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	if len(b) == 0 {
		return len(a)
	}

	// h[j] is the horizontal delta D[i][j+1]-D[i][j] along the row i that
	// separates the block being swept from the one above: bit 0 set for +1,
	// bit 1 for -1. Row 0 of the table is 0,1,2,…, so above the first block
	// it is +1 everywhere, which a single-word pattern never needs stored.
	var h []uint8
	if len(b) > 64 {
		h = make([]uint8, len(a))
		for j := range h {
			h[j] = 1
		}
	}
	score := 0
	for lo := 0; lo < len(b); lo += 64 {
		blk := b[lo:min(lo+64, len(b))]
		var peq [256]uint64 // peq[c] bit i: blk[i] == c
		for i, c := range blk {
			peq[c] |= 1 << uint(i)
		}
		// Bits above top in a short last block hold garbage that never
		// reaches the bits below: carries and shifts only travel upwards.
		top := uint(len(blk) - 1)
		score = lo + len(blk) // D[lo+len(blk)][0]
		pv, mv := ^uint64(0), uint64(0)
		for j, c := range a {
			hin := uint8(1)
			if h != nil {
				hin = h[j]
			}
			hp, hn := uint64(hin&1), uint64(hin>>1)
			eq := peq[c]
			xv := eq | mv
			eq |= hn
			xh := (((eq & pv) + pv) ^ pv) | eq
			ph := mv | ^(xh | pv)
			mh := pv & xh
			outp, outn := ph>>top&1, mh>>top&1
			score += int(outp) - int(outn)
			if h != nil {
				h[j] = uint8(outp | outn<<1)
			}
			// Bit 0 is free after the shift, so + is |; it compiles to one
			// LEA and keeps a single-word pattern's dependency chain as
			// short as a loop with the constant hin = +1 folded in.
			ph = ph<<1 + hp
			mh = mh<<1 + hn
			pv = mh | ^(xv | ph)
			mv = ph & xv
		}
	}
	return score
}

// editPair returns the edit distances from a pattern of m bytes, 1 ≤ m ≤ 64,
// whose match table is peq (Scratch.prepare), to the texts a and b. The two
// advance in one loop as two independent dependency chains, which the core
// overlaps as it does vecmath.L2SqrPair's two vectors; the longer then
// finishes alone, and editPair(peq, m, t, nil) measures one text. Nothing is
// trimmed: Hyyrö's global form yields D[m][n] for any pattern and text, the
// integer EditDistance returns.
func editPair(peq *[256]uint64, m int, a, b []byte) (da, db int) {
	top := uint(m - 1)
	pa, ma, pb, mb := ^uint64(0), uint64(0), ^uint64(0), uint64(0)
	da, db = m, m // D[m][0]
	var d int
	ha := a[:min(len(a), len(b))]
	hb := b[:len(ha)]
	for j := range ha {
		pa, ma, d = myersStep(peq[ha[j]], pa, ma, top)
		da += d
		pb, mb, d = myersStep(peq[hb[j]], pb, mb, top)
		db += d
	}
	for _, c := range a[len(ha):] {
		pa, ma, d = myersStep(peq[c], pa, ma, top)
		da += d
	}
	for _, c := range b[len(hb):] {
		pb, mb, d = myersStep(peq[c], pb, mb, top)
		db += d
	}
	return da, db
}

// editLanes is how many texts editClosest and editMany measure per pass:
// four where the AVX2 pass runs (editQuad), two (editPair) elsewhere.
func editLanes() int {
	if quadPass {
		return 4
	}
	return 2
}

// editGroup returns the edit distances from the pattern of m bytes, 1 ≤ m ≤
// 64, whose match table is peq to the texts g[:n], 1 ≤ n ≤ editLanes(), in one
// pass: editQuad, a short group repeating its last text in the spare lanes
// (a four-lane pass costs less than editPair on the same texts), or editPair,
// a group of one measured alone. It may overwrite g[n:].
func editGroup(peq *[256]uint64, m int, g *[4][]byte, n int) (d [4]int) {
	if quadPass {
		for i := n; i < len(g); i++ {
			g[i] = g[n-1]
		}
		return editQuad(peq, m, g)
	}
	if n == 1 {
		g[1] = nil
	}
	d[0], d[1] = editPair(peq, m, g[0], g[1])
	return d
}

// quadState is the vertical deltas of editQuad's four lanes, one text each.
type quadState struct{ pv, mv [4]uint64 }

// editQuad returns the edit distances from a pattern of m bytes, 1 ≤ m ≤ 64,
// whose match table is peq to the four texts t, in one pass of the four-lane
// Myers step (editQuadSteps: AVX2 assembly on amd64, where it may run only
// when quadPass). The
// lanes run in order of length: the pass advances all four to the shortest
// text's end, where that lane's distance is read, then the finished lane
// reads the longest text instead and the pass goes on to the next length. A
// lane's distance needs no running score: the last column of the table is
// D[0][n] = n plus the vertical deltas of its m rows, so it is n +
// popcount(pv) − popcount(mv) over the pattern's bits, the integer editPair
// sums step by step. t is not modified.
func editQuad(peq *[256]uint64, m int, t *[4][]byte) (d [4]int) {
	// Each key is a lane's length times four plus its index, sorted by a
	// five-comparator network of branch-free min and max: lengths are
	// random, and a mispredicted branch costs as much as a step.
	k := [4]int{len(t[0]) << 2, len(t[1])<<2 | 1, len(t[2])<<2 | 2, len(t[3])<<2 | 3}
	k[0], k[1] = min(k[0], k[1]), max(k[0], k[1])
	k[2], k[3] = min(k[2], k[3]), max(k[2], k[3])
	k[0], k[2] = min(k[0], k[2]), max(k[0], k[2])
	k[1], k[3] = min(k[1], k[3]), max(k[1], k[3])
	k[1], k[2] = min(k[1], k[2]), max(k[1], k[2])
	lanes, longest := *t, t[k[3]&3]
	st := quadState{pv: [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}}
	mask := ^uint64(0) >> uint(64-m)
	from := 0
	for _, key := range k {
		i, n := key&3, key>>2
		if n > from {
			editQuadSteps(peq, &st, &lanes, from, n)
			from = n
		}
		d[i] = n + bits.OnesCount64(st.pv[i]&mask) - bits.OnesCount64(st.mv[i]&mask)
		lanes[i] = longest
	}
	return d
}

// myersStep advances a single-word pattern's vertical deltas (pv, mv) past one
// text byte whose match mask is eq: EditDistance's inner step with row 0's
// constant +1 horizontal delta folded in. It returns the new deltas and the
// change of the last row's score, read at bit top.
func myersStep(eq, pv, mv uint64, top uint) (uint64, uint64, int) {
	xv := eq | mv
	xh := (((eq & pv) + pv) ^ pv) | eq
	ph := mv | ^(xh | pv)
	mh := pv & xh
	d := int(ph>>top&1) - int(mh>>top&1)
	ph = ph<<1 + 1
	mh <<= 1
	return mh | ^(xv | ph), ph & xv, d
}
