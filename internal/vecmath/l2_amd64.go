package vecmath

// l2PairBlocks is the SSE2 pass of l2SqrPair (l2_amd64.s). Over the first
// len(q)&^3 elements it returns the four accumulators of l2SqrPairGeneric's
// loop for a, then those for b, each lane summed in index order. a and b
// must be at least len(q) long.
//
//go:noescape
func l2PairBlocks(q []float64, a, b []float32) (a0, a1, a2, a3, b0, b1, b2, b3 float64)

// l2SqrPair is l2SqrPairGeneric with its blocked loop in SSE2: the len%4
// tail goes into the first accumulators and the four are summed in
// l2SqrPairGeneric's order, here in Go.
func l2SqrPair(q []float64, a, b []float32) (float64, float64) {
	a0, a1, a2, a3, b0, b1, b2, b3 := l2PairBlocks(q, a, b)
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
// 64-byte line (l2_amd64.s), in the baseline instruction set, so there is no
// CPU detection. A prefetch never faults and changes no value.
//
//go:noescape
func Prefetch(v []float32)
