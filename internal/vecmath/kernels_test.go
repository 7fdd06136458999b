package vecmath

// Differential property tests for the saturated kernels: every kernel must
// be byte-identical to its reference scalar implementation at every width
// from 0 to 129, which sweeps every tail-lane case of the 4-way unrolled
// loops (width mod 4 = 0..3 on both sides of the dispatch thresholds) and,
// for the nibble kernel, every partial-word tail (width mod 16 = 0..15).

import (
	"math/rand"
	"testing"
)

// rankVectors returns a pair of pseudo-random rank-like vectors of the
// given width: values in [0, width), as real permutations have, plus a few
// adversarial extremes.
func rankVectors(r *rand.Rand, width int) (a, b []int32) {
	a = make([]int32, width)
	b = make([]int32, width)
	for i := range a {
		a[i] = int32(r.Intn(width))
		b[i] = int32(r.Intn(width))
	}
	if width > 1 {
		a[0], b[0] = 0, int32(width-1) // max positive diff
		a[1], b[1] = int32(width-1), 0 // max negative diff
	}
	return a, b
}

func TestSpearmanRhoMatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for width := 0; width <= 129; width++ {
		for rep := 0; rep < 8; rep++ {
			a, b := rankVectors(r, width)
			if got, want := SpearmanRho(a, b), SpearmanRhoRef(a, b); got != want {
				t.Fatalf("width %d: SpearmanRho = %d, ref = %d", width, got, want)
			}
		}
	}
}

func TestRankKernelsPanicOnLengthMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"SpearmanRho": func() { SpearmanRho(make([]int32, 3), make([]int32, 4)) },
		"Footrule":    func() { Footrule(make([]int32, 3), make([]int32, 4)) },
		"NibbleL1":    func() { NibbleL1(make([]uint64, 1), make([]uint64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

// packNibbles packs vals (each 0..15) into words, low lanes first; tail
// lanes stay zero, exactly like permutation.Quantize.
// nibbleL1Ref is the reference scalar implementation of NibbleL1, the oracle
// its tests and benchmark hold it to: it unpacks every 4-bit lane and
// accumulates plain integer absolute differences. Both slices must have the
// same length.
func nibbleL1Ref(a, b []uint64) int {
	var s int
	for i := range a {
		for sh := 0; sh < 64; sh += 4 {
			x := int(a[i]>>sh) & 0xF
			y := int(b[i]>>sh) & 0xF
			if x >= y {
				s += x - y
			} else {
				s += y - x
			}
		}
	}
	return s
}

func packNibbles(vals []uint8) []uint64 {
	words := make([]uint64, (len(vals)+15)/16)
	for i, v := range vals {
		words[i/16] |= uint64(v&0xF) << (4 * (i % 16))
	}
	return words
}

func TestNibbleL1MatchesRef(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	// width counts nibble lanes here; 0..129 covers 0..9 words with every
	// partial tail.
	for width := 0; width <= 129; width++ {
		for rep := 0; rep < 8; rep++ {
			av := make([]uint8, width)
			bv := make([]uint8, width)
			var want int
			for i := range av {
				av[i] = uint8(r.Intn(16))
				bv[i] = uint8(r.Intn(16))
				d := int(av[i]) - int(bv[i])
				if d < 0 {
					d = -d
				}
				want += d
			}
			a, b := packNibbles(av), packNibbles(bv)
			if got := NibbleL1(a, b); got != want {
				t.Fatalf("width %d: NibbleL1 = %d, unpacked sum = %d", width, got, want)
			}
			if got, ref := NibbleL1(a, b), nibbleL1Ref(a, b); got != ref {
				t.Fatalf("width %d: NibbleL1 = %d, ref = %d", width, got, ref)
			}
		}
	}
}

// TestNibbleL1WordExhaustiveLanes drives a single lane pair through all
// 16x16 value combinations in every lane position — the full truth table of
// the SWAR absolute-difference step.
func TestNibbleL1WordExhaustiveLanes(t *testing.T) {
	for lane := 0; lane < 16; lane++ {
		sh := 4 * lane
		for x := 0; x < 16; x++ {
			for y := 0; y < 16; y++ {
				got := NibbleL1Word(uint64(x)<<sh, uint64(y)<<sh)
				want := x - y
				if want < 0 {
					want = -want
				}
				if got != want {
					t.Fatalf("lane %d: |%d-%d| = %d, want %d", lane, x, y, got, want)
				}
			}
		}
	}
}

func TestNibbleL1WordSaturatesNowhere(t *testing.T) {
	// All lanes at maximum distance: 16 lanes * 15 = 240, the largest value
	// a word can produce; the byte-ladder horizontal sum must carry it
	// without overflow into the next byte.
	var a, b uint64 = 0, ^uint64(0) // 0x0 vs 0xF in every lane
	if got := NibbleL1Word(a, b); got != 240 {
		t.Fatalf("max-distance word: got %d, want 240", got)
	}
}
