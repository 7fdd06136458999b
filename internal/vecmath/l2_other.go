//go:build !amd64 || purego

package vecmath

// This file is the Go side of every GOARCH without assembly kernels, and of
// amd64 built with the test-only tag purego, which leaves the assembly out so
// that the test suite runs the Go bodies the other GOARCHes ship.

// hasAVX2 is false: only amd64 has AVX2 arms.
const hasAVX2 = false

// Arm names the body this process runs for L2SqrPair, for NAPP's ScanCount
// block and for the edit-distance pass: the Go loops.
func Arm() string { return "generic" }

// l2SqrPair is L2SqrPair's body: the Go loop.
func l2SqrPair(q []float64, a, b []float32) (float64, float64) {
	return l2SqrPairGeneric(q, a, b)
}

// Prefetch is the amd64 cache hint's portable form: without the assembly it
// does nothing.
func Prefetch(v []float32) {}
