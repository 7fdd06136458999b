package vecmath

// The CPUID and XCR0 bits the AVX2 arms need (Intel SDM vol. 2A, CPUID;
// vol. 1 §13.3, XCR0).
const (
	cpuidOSXSAVE = 1 << 27 // leaf 1, ECX: the OS has enabled XGETBV
	cpuidAVX     = 1 << 28 // leaf 1, ECX
	cpuidAVX2    = 1 << 5  // leaf 7 subleaf 0, EBX
	xcr0SSEAVX   = 1<<1 | 1<<2
)

// avx2Usable decides from CPUID's maximum basic leaf, leaf 1's ECX, XCR0
// and leaf 7's EBX whether AVX2 code can run: the CPU has AVX and AVX2, and
// the OS saves the XMM and YMM state across context switches (without that,
// a YMM register's upper half can be lost at any moment).
func avx2Usable(maxLeaf, ecx1, xcr0, ebx7 uint32) bool {
	return maxLeaf >= 7 &&
		ecx1&(cpuidOSXSAVE|cpuidAVX) == cpuidOSXSAVE|cpuidAVX &&
		xcr0&xcr0SSEAVX == xcr0SSEAVX &&
		ebx7&cpuidAVX2 != 0
}

// AVX2 reports whether this process runs the AVX2 arms: L2SqrPair's pass,
// through internal/core NAPP's ScanCount block, and through internal/space
// the four-lane edit-distance pass. It is decided once at start from CPUID
// and XGETBV, and is false on every GOARCH but amd64 (and under the
// test-only tags purego and noavx2). Every arm returns the bits of the code
// it replaces.
func AVX2() bool { return hasAVX2 }
