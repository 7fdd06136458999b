//go:build !amd64

package vecmath

// l2SqrPair is L2SqrPair's body: the Go loop, on every GOARCH without an
// assembly kernel.
func l2SqrPair(q []float64, a, b []float32) (float64, float64) {
	return l2SqrPairGeneric(q, a, b)
}

// Prefetch is the amd64 cache hint's portable form: on every GOARCH without
// an assembly kernel it does nothing.
func Prefetch(v []float32) {}
