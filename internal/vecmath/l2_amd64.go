//go:build !purego

package vecmath

// hasAVX2 is whether this CPU and OS run AVX2 code, decided once at start;
// the test-only tag noavx2 turns it off (noAVX2).
var hasAVX2 = !noAVX2 && detectAVX2()

// detectAVX2 reads the CPUID and XGETBV words avx2Usable decides on. XGETBV
// is only executed when CPUID says the OS has enabled it (OSXSAVE), and leaf
// 7 only when the CPU has it.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var xcr0, ebx7 uint32
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	return avx2Usable(maxLeaf, ecx1, xcr0, ebx7)
}

// cpuid executes CPUID for leaf eaxArg, subleaf ecxArg (l2_amd64.s).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the register in which the OS says which register
// state it saves (l2_amd64.s). It faults unless CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// Arm names the body this process runs for L2SqrPair, for NAPP's ScanCount
// block and for the edit-distance pass behind space.Many and space.Closest:
// "avx2" or "sse2" on amd64 (ScanCount and the edit distances are Go under
// "sse2"), "generic" on every other GOARCH.
func Arm() string {
	if hasAVX2 {
		return "avx2"
	}
	return "sse2"
}

// l2PairBlocks is the SSE2 pass of l2SqrPair (l2_amd64.s). Over the first
// len(q)&^3 elements it returns the four accumulators of l2SqrPairGeneric's
// loop for a, then those for b, each lane summed in index order. a and b
// must be at least len(q) long.
//
//go:noescape
func l2PairBlocks(q []float64, a, b []float32) (a0, a1, a2, a3, b0, b1, b2, b3 float64)

// l2PairBlocksAVX2 is l2PairBlocks in 256-bit lanes (l2_amd64.s): one
// register holds a vector's four accumulators. It returns the same bits. Call
// it only when hasAVX2.
//
//go:noescape
func l2PairBlocksAVX2(q []float64, a, b []float32) (a0, a1, a2, a3, b0, b1, b2, b3 float64)

// l2SqrPair is l2SqrPairGeneric with its blocked loop in assembly: the AVX2
// pass where the CPU has it, the SSE2 pass otherwise.
func l2SqrPair(q []float64, a, b []float32) (float64, float64) {
	return l2SqrPairAsm(hasAVX2, q, a, b)
}

// l2SqrPairAsm runs the AVX2 pass when avx2 is set and the SSE2 pass
// otherwise, then adds the len%4 tail into the first accumulators and sums
// the four in l2SqrPairGeneric's order, here in Go. The tests call it with
// both values, so the pass the CPU does not dispatch is held to the Go loop
// too.
func l2SqrPairAsm(avx2 bool, q []float64, a, b []float32) (float64, float64) {
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	if avx2 {
		a0, a1, a2, a3, b0, b1, b2, b3 = l2PairBlocksAVX2(q, a, b)
	} else {
		a0, a1, a2, a3, b0, b1, b2, b3 = l2PairBlocks(q, a, b)
	}
	for i := len(q) &^ 3; i < len(q); i++ {
		d := float64(a[i]) - q[i]
		e := float64(b[i]) - q[i]
		a0 += d * d
		b0 += e * e
	}
	return a0 + a1 + a2 + a3, b0 + b1 + b2 + b3
}

// Prefetch asks the CPU to bring every cache line of v into cache now, so a
// later read of v waits less on memory; space.Many calls it on candidates a
// few pairs before it measures them. On amd64 it is one PREFETCHT0 per
// 64-byte line (l2_amd64.s), in the baseline instruction set, so it needs no
// CPU check. A prefetch never faults and changes no value.
//
//go:noescape
func Prefetch(v []float32)
