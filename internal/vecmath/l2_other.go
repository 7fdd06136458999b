//go:build !amd64

package vecmath

// hasAVX2 is false: only amd64 has AVX2 arms.
const hasAVX2 = false

// Arm names the body this process runs for L2SqrPair and for NAPP's
// ScanCount block: the Go loops, on every GOARCH without assembly kernels.
func Arm() string { return "generic" }

// l2SqrPair is L2SqrPair's body: the Go loop, on every GOARCH without an
// assembly kernel.
func l2SqrPair(q []float64, a, b []float32) (float64, float64) {
	return l2SqrPairGeneric(q, a, b)
}

// Prefetch is the amd64 cache hint's portable form: on every GOARCH without
// an assembly kernel it does nothing.
func Prefetch(v []float32) {}
