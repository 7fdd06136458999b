package permutation

// Quantized is a nibble-packed 4-bit quantized permutation prefix: lane i
// (4 bits, low lanes first) holds the rank of pivot i compressed from
// [0, m) down to [0, 16). Where Binary keeps one bit of rank information
// per pivot, Quantized keeps four for a prefix of the pivots, so the
// Footrule distance between two quantized prefixes tracks the full rank
// distance much more closely than Hamming does — at 2x the footprint of a
// same-length binary sketch and still scanned word-wise, via the SWAR
// absolute-difference kernel in internal/vecmath rather than XOR+popcount.
type Quantized []uint64

// QuantizedWords returns the number of 64-bit words needed for a prefix of
// l pivots (16 nibble lanes per word).
func QuantizedWords(l int) int { return (l + 15) / 16 }

// Quantize packs the first prefixLen ranks of perm into dst: lane i holds
// perm[i]*16/m where m = len(perm), mapping ranks 0..m-1 onto 0..15 in
// equal-width buckets (exact when m is a multiple of 16; m >= 16 uses all
// 16 levels). Unused tail lanes of the last word are zeroed, as
// vecmath.NibbleL1 requires. dst may be nil; it is grown as needed and returned.
// It panics if prefixLen is negative or exceeds len(perm).
func Quantize(perm []int32, prefixLen int, dst Quantized) Quantized {
	if prefixLen < 0 || prefixLen > len(perm) {
		panic("permutation: quantized prefix length out of range")
	}
	m := len(perm)
	words := QuantizedWords(prefixLen)
	if cap(dst) < words {
		dst = make(Quantized, words)
	}
	dst = dst[:words]
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < prefixLen; i++ {
		q := uint64(perm[i]) * 16 / uint64(m) // perm[i] <= m-1, so q <= 15
		dst[i/16] |= q << (4 * (uint(i) % 16))
	}
	return dst
}
