package core

import (
	"math/bits"

	"repro/internal/topk"
	"repro/internal/vecmath"
)

// Bit-sliced ScanCount. NAPP keeps one bitmap per pivot (bit id set when
// point id posts to the pivot) and counts, for all ids at once, how many of
// the query's ms selected bitmaps contain each id. The counters are
// vertical: plane p holds bit p of every id's count, so one 64-bit word-op
// advances 64 counters. Inputs enter the planes through carry-save adders —
// sixteen at a time through a Harley–Seal block (15 adders), the ms mod 16
// leftovers by ripple carry — and the per-query threshold t is applied with
// a bit-sliced comparison, so the candidates of a word fall out as one mask.
// Where the CPU has AVX2 (vecmath.AVX2), the sixteen-input block runs four
// words per operation in assembly (add16AVX2); add16 is its oracle and the
// body every other CPU runs.
//
// Cost model: the scan reads ms·⌈N/64⌉ words at ≈5 word-ops each,
// independent of mi, where merging id lists costs one counter increment per
// posting, ms·mi·N/m of them; the bitmaps take m·N/8 bytes against the
// 4·mi·N of the lists. So bitmaps are smaller whenever mi/m > 1/32, and
// faster down to the density mi/m at which an increment costs 1/64 of a
// word's adders — about 0.3–0.7%, the more cache misses the counters take
// the lower (README "Performance" has the measured rows).

const (
	// scanChunk is how many 64-id words the kernel advances per step: one
	// bounds check per bitmap per chunk instead of one per word.
	scanChunk = 8
	// scanPlanes is the counter width: ms is capped at 255.
	scanPlanes = 8
)

// scanWindow is scanChunk consecutive words of one bitmap.
type scanWindow = [scanChunk]uint64

// countPlanes is the vertical counter state of one chunk: bit b of
// planes[p][k] is bit p of the count of id (w+k)*64+b.
type countPlanes [scanPlanes]scanWindow

// window returns words [w, w+scanChunk) of b. A bitmap reads as zero past
// its end: the part that is missing is padded with zeros in *pad.
func window(b []uint64, w int, pad *scanWindow) *scanWindow {
	if w+scanChunk <= len(b) {
		return (*scanWindow)(b[w:])
	}
	*pad = scanWindow{}
	if w < len(b) {
		copy(pad[:], b[w:])
	}
	return pad
}

// csa is a carry-save adder: three words of weight 1 in, their sum out as a
// word of weight 2 (hi) and a word of weight 1 (lo).
func csa(a, b, c uint64) (hi, lo uint64) {
	u := a ^ b
	return a&b | u&c, u ^ c
}

// add16 adds sixteen input windows into the planes: a straight-line
// Harley–Seal block per word, whose carry of weight 16 ripples into the
// planes above (nplanes of them are in use).
func (pl *countPlanes) add16(in *[16]*scanWindow, nplanes int) {
	for k := 0; k < scanChunk; k++ {
		ones, twos, fours, eights := pl[0][k], pl[1][k], pl[2][k], pl[3][k]
		var twosA, twosB, foursA, foursB, eightsA, eightsB, carry uint64
		twosA, ones = csa(ones, in[0][k], in[1][k])
		twosB, ones = csa(ones, in[2][k], in[3][k])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, in[4][k], in[5][k])
		twosB, ones = csa(ones, in[6][k], in[7][k])
		foursB, twos = csa(twos, twosA, twosB)
		eightsA, fours = csa(fours, foursA, foursB)
		twosA, ones = csa(ones, in[8][k], in[9][k])
		twosB, ones = csa(ones, in[10][k], in[11][k])
		foursA, twos = csa(twos, twosA, twosB)
		twosA, ones = csa(ones, in[12][k], in[13][k])
		twosB, ones = csa(ones, in[14][k], in[15][k])
		foursB, twos = csa(twos, twosA, twosB)
		eightsB, fours = csa(fours, foursA, foursB)
		carry, eights = csa(eights, eightsA, eightsB)
		pl[0][k], pl[1][k], pl[2][k], pl[3][k] = ones, twos, fours, eights
		for p := 4; p < nplanes; p++ {
			pl[p][k], carry = pl[p][k]^carry, pl[p][k]&carry
		}
	}
}

// add1 adds one input window into the planes by ripple carry.
func (pl *countPlanes) add1(in *scanWindow, nplanes int) {
	for k, carry := range in {
		for p := 0; p < nplanes && carry != 0; p++ {
			pl[p][k], carry = pl[p][k]^carry, pl[p][k]&carry
		}
	}
}

// atLeast returns, per word, the mask of ids whose count is >= t, for
// 1 <= t < 1<<nplanes. The comparison walks the planes from the most
// significant down, tracking the ids still equal to t's prefix (eq) and the
// ids already decided greater (gt).
func (pl *countPlanes) atLeast(t, nplanes int) scanWindow {
	var gt, eq scanWindow
	for k := range eq {
		eq[k] = ^uint64(0)
	}
	for p := nplanes - 1; p >= 0; p-- {
		v := &pl[p]
		if t>>p&1 == 1 {
			for k := range eq {
				eq[k] &= v[k]
			}
		} else {
			for k := range eq {
				gt[k] |= eq[k] & v[k]
				eq[k] &^= v[k]
			}
		}
	}
	for k := range gt {
		gt[k] |= eq[k]
	}
	return gt
}

// count reads the count of bit b of word k back off the planes.
func (pl *countPlanes) count(k, b, nplanes int) int {
	c := 0
	for p := 0; p < nplanes; p++ {
		c |= int(pl[p][k]>>b&1) << p
	}
	return c
}

// scan fills s.cands, in ascending id order, with every id that at least t
// of the selected pivots' bitmaps contain. With scored set, each
// candidate is also appended to s.sel scored by its negated count, read off
// the planes at emission — the (Dist, ID) order of topk.SelectK then ranks
// candidates by shared pivots descending, ids ascending, which is what
// MaxCandidates keeps. t outside [1, len(pivots)] selects nothing: no id can
// share more pivots than were scanned. The planes and input windows live on
// the stack.
func (na *NAPP[T]) scan(s *nappScratch, pivots []int32, t int, scored bool) {
	s.cands, s.sel = s.cands[:0], s.sel[:0]
	ms := len(pivots)
	if t < 1 || t > ms {
		return
	}
	cands, sel := s.cands, s.sel
	avx2 := vecmath.AVX2()
	nplanes := bits.Len(uint(ms))
	nwords := (len(na.data) + 63) / 64
	var (
		pl   countPlanes
		in   [16]*scanWindow
		pads [16]scanWindow
	)
	for w := 0; w < nwords; w += scanChunk {
		pl = countPlanes{}
		j := 0
		for ; j+16 <= ms; j += 16 {
			for i := range in {
				in[i] = window(na.bitmaps[pivots[j+i]], w, &pads[i])
			}
			if avx2 {
				add16AVX2(&pl, &in, nplanes)
			} else {
				pl.add16(&in, nplanes)
			}
		}
		for ; j < ms; j++ {
			pl.add1(window(na.bitmaps[pivots[j]], w, &pads[0]), nplanes)
		}
		hits := pl.atLeast(t, nplanes)
		for k, word := range hits {
			for ; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				id := uint32(w+k)<<6 | uint32(b)
				cands = append(cands, id)
				if scored {
					sel = append(sel, topk.Neighbor{ID: id, Dist: -float64(pl.count(k, b, nplanes))})
				}
			}
		}
	}
	s.cands, s.sel = cands, sel
}
