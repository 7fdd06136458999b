package permutation

import "math/bits"

// Binary is a bit-packed binarized permutation (Tellez et al., §2.1-2.2 of
// the paper): bit i is set when the rank of pivot i is at least the
// binarization threshold. Binarized permutations trade rank resolution for a
// 32x smaller footprint and a Hamming distance computed with word-wide XOR +
// popcount — the strategy that wins the DNA experiment (Figure 4f).
type Binary []uint64

// BinaryWords returns the number of 64-bit words needed for m pivots.
func BinaryWords(m int) int { return (m + 63) / 64 }

// Binarize packs perm into dst: bit i is set iff perm[i] >= threshold. A
// common threshold is m/2, which balances ones and zeros. dst may be nil; it
// is grown as needed and returned.
func Binarize(perm []int32, threshold int32, dst Binary) Binary {
	words := BinaryWords(len(perm))
	if cap(dst) < words {
		dst = make(Binary, words)
	}
	dst = dst[:words]
	for i := range dst {
		dst[i] = 0
	}
	for i, r := range perm {
		if r >= threshold {
			dst[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return dst
}

// Hamming returns the number of differing bits between two binary
// permutations of equal length. Each 64-bit word is XOR-ed and counted with
// the CPU popcount instruction via math/bits, the Go equivalent of the
// paper's __builtin_popcount.
func Hamming(a, b Binary) int {
	if len(a) != len(b) {
		panic("permutation: binary length mismatch")
	}
	var s int
	for i := range a {
		s += bits.OnesCount64(a[i] ^ b[i])
	}
	return s
}
