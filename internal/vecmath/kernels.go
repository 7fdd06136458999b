package vecmath

// Saturated integer kernels for the permutation filtering stage and the
// 4-bit quantized signature scan. The paper's C++ implementation leans on
// SSE for these inner loops; the Go equivalents here are hand-unrolled
// (rank kernels) or SWAR over 64-bit words via math/bits-style bit tricks
// (nibble kernels), which is as close to "use the whole register" as the
// gc toolchain allows without assembly.
//
// Dispatch policy: each public kernel switches between a simple scalar loop
// and its unrolled twin on a width threshold. The thresholds are constants
// chosen from BenchmarkRankKernels / BenchmarkNibbleL1 (kernels_bench_test.go)
// on amd64: below them the unrolled prologue/epilogue costs more than it
// saves. Every unrolled kernel is byte-identical to its reference scalar
// loop (SpearmanRhoRef, which SpearmanRho also runs below its threshold, and
// the test oracle nibbleL1Ref) — integer arithmetic is exact and
// reordering-safe — which kernels_test.go pins across widths 0..129 (all
// tail-lane cases). Footrule is a scalar loop only.

// Dispatch threshold, measured per width with BenchmarkRankKernels (amd64,
// widths 4..256): the gc compiler already emits branch-free scalar code for
// both rank kernels, so the 4-way accumulator split only pays once the loop
// is long enough for instruction-level parallelism to beat the extra
// register pressure. For rho (sub+mul+add per lane) that crossover is at
// width 128 (~6% there, ~15% at 256); for footrule (sub+cmov+add per lane)
// the scalar loop wins at every tested width and unroll shape (1/2/4
// accumulators, int32 and int64 lanes), so Footrule has no unrolled twin.
const rhoUnrollMin = 128

// SpearmanRho returns the sum of squared element differences between two
// equal-length int32 rank vectors — Spearman's rho in the paper's §2.1,
// exact in int64. It panics if the lengths differ.
func SpearmanRho(a, b []int32) int64 {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	if len(a) < rhoUnrollMin {
		return SpearmanRhoRef(a, b)
	}
	var s0, s1, s2, s3 int64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := int64(a[i]) - int64(b[i])
		d1 := int64(a[i+1]) - int64(b[i+1])
		d2 := int64(a[i+2]) - int64(b[i+2])
		d3 := int64(a[i+3]) - int64(b[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := int64(a[i]) - int64(b[i])
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// SpearmanRhoRef is the reference scalar implementation of SpearmanRho,
// the byte-identity baseline of the differential kernel tests. Both slices
// must have the same length.
func SpearmanRhoRef(a, b []int32) int64 {
	var s int64
	for i := range a {
		d := int64(a[i]) - int64(b[i])
		s += d * d
	}
	return s
}

// Footrule returns the sum of absolute element differences between two
// equal-length int32 rank vectors — the Footrule distance, exact in int64.
// The per-lane absolute value compiles to a conditional move, so the loop
// has no data-dependent branches. It panics if the lengths differ.
func Footrule(a, b []int32) int64 {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	var s int64
	for i := range a {
		d := int64(a[i]) - int64(b[i])
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// SWAR lane constants for the nibble kernels: each 64-bit word holds 16
// 4-bit lanes, split for the absolute-difference step into the even and odd
// nibble byte planes.
const (
	nibbleLo = 0x0F0F0F0F0F0F0F0F // low nibble of every byte
	byteLo   = 0x0101010101010101 // low bit of every byte
	byteHi   = 0x8080808080808080 // high bit of every byte
)

// NibbleL1Word returns the L1 distance between the 16 4-bit lanes of x and
// y: sum over lanes of |x_i - y_i|. It is the word kernel of the quantized
// permutation-prefix scan and is written as a small branch-free leaf so the
// compiler inlines it into flat scan loops.
//
// Technique: the word is split into its even- and odd-nibble byte planes
// (values 0..15 in byte lanes). Per plane, forcing the high bit of every x
// byte makes the lane-wise subtraction borrow-free, the surviving high bit
// is the x>=y lane mask, and a mask-select combines the two subtraction
// directions into |x-y|. The horizontal byte sum is one multiply by the
// byte ladder: per-word lane sums reach at most 16*15 = 240 < 256, so the
// top byte of the product is exact.
func NibbleL1Word(x, y uint64) int {
	xe, ye := x&nibbleLo, y&nibbleLo
	xo, yo := (x>>4)&nibbleLo, (y>>4)&nibbleLo
	te := (xe | byteHi) - ye
	to := (xo | byteHi) - yo
	me := ((te & byteHi) >> 7) * 0xFF // 0xFF in lanes where xe >= ye
	mo := ((to & byteHi) >> 7) * 0xFF
	ae := ((te &^ byteHi) & me) | (((ye|byteHi)-xe)&^byteHi)&^me
	ao := ((to &^ byteHi) & mo) | (((yo|byteHi)-xo)&^byteHi)&^mo
	return int(((ae + ao) * byteLo) >> 56)
}

// NibbleL1 returns the L1 distance between two equal-length nibble-packed
// words slices (16 4-bit lanes per word): the Footrule distance between two
// quantized permutation prefixes. Unused tail lanes must hold equal values
// on both sides (the packers zero them). It panics if the lengths differ.
func NibbleL1(a, b []uint64) int {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	var s int
	for i := range a {
		s += NibbleL1Word(a[i], b[i])
	}
	return s
}
