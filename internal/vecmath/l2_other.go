//go:build !amd64

package vecmath

// l2SqrPair is L2SqrPair's body: the Go loop, on every GOARCH without an
// assembly kernel.
func l2SqrPair(q []float64, a, b []float32) (float64, float64) {
	return l2SqrPairGeneric(q, a, b)
}
