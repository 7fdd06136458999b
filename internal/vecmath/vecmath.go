// Package vecmath provides low-level dense-vector arithmetic used by the
// distance functions in package space.
//
// The paper's C++ implementation measures L2 with hand-written SIMD. Here the
// one kernel every served L2 query spends its time in — L2SqrPair, behind
// space.Many and space.ManyFrom, so the refine, the sequential scan and pivot
// ranking — has an SSE2 body on amd64 (l2_amd64.s). SSE2 is the amd64
// baseline, so there is no CPU detection and no option. Its packed lanes run
// the scalar loop's IEEE operations in the scalar loop's order, so it returns
// the same bits as l2SqrPairGeneric, the Go loop every other GOARCH runs and
// the amd64 tests hold it to. Its callers' candidates are random vectors of a
// corpus larger than the cache, so what a refine waits on is memory, not
// arithmetic: Prefetch (PREFETCHT0 per cache line on amd64, also baseline; a
// no-op elsewhere) lets space.Many ask for the vectors it measures a few pairs
// later. The other kernels are plain Go, 4-way unrolled over independent
// accumulators; the *relative* cost model of the paper (L2 cheap, JS-div
// ~10-20x L2, SQFD ~100x L2) is preserved, which is what the reproduced
// experiments depend on.
package vecmath

import "math"

// L2Sqr returns the squared Euclidean distance between a and b.
// It panics if the slices have different lengths.
func L2Sqr(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// L2SqrPair returns L2Sqr(a, x) and L2Sqr(b, x) in one pass, for the vector
// x already widened to float64 as q. Each result keeps L2Sqr's exact
// arithmetic — the same per-element difference and its 4-accumulator split,
// tail into the first — so both are bit-identical to L2Sqr; the pass loads
// q once for two vectors and overlaps their memory latency. On amd64 the
// pass runs in SSE2 (l2_amd64.s): per vector one register holds the
// accumulators (s0, s1) and another (s2, s3), and each step widens, subtracts,
// squares and adds two lanes at once, unfused, as the scalar code does one.
// Because (a-x)² == (x-a)² exactly, the results also equal L2Sqr(x, a) and
// L2Sqr(x, b). It panics if the lengths differ.
func L2SqrPair(q []float64, a, b []float32) (float64, float64) {
	if len(a) != len(q) || len(b) != len(q) {
		panic("vecmath: length mismatch")
	}
	return l2SqrPair(q, a, b)
}

// l2SqrPairGeneric is L2SqrPair's body in Go: what every GOARCH but amd64
// runs, and the reference the amd64 kernel is tested against. a and b must
// be at least len(q) long.
func l2SqrPairGeneric(q []float64, a, b []float32) (float64, float64) {
	var a0, a1, a2, a3, b0, b1, b2, b3 float64
	i := 0
	for ; i+4 <= len(q); i += 4 {
		qs, as, bs := q[i:i+4:i+4], a[i:i+4:i+4], b[i:i+4:i+4]
		d0 := float64(as[0]) - qs[0]
		d1 := float64(as[1]) - qs[1]
		d2 := float64(as[2]) - qs[2]
		d3 := float64(as[3]) - qs[3]
		e0 := float64(bs[0]) - qs[0]
		e1 := float64(bs[1]) - qs[1]
		e2 := float64(bs[2]) - qs[2]
		e3 := float64(bs[3]) - qs[3]
		a0 += d0 * d0
		a1 += d1 * d1
		a2 += d2 * d2
		a3 += d3 * d3
		b0 += e0 * e0
		b1 += e1 * e1
		b2 += e2 * e2
		b3 += e3 * e3
	}
	for ; i < len(q); i++ {
		d := float64(a[i]) - q[i]
		e := float64(b[i]) - q[i]
		a0 += d * d
		b0 += e * e
	}
	return a0 + a1 + a2 + a3, b0 + b1 + b2 + b3
}

// L2 returns the Euclidean distance between a and b.
func L2(a, b []float32) float64 {
	return math.Sqrt(L2Sqr(a, b))
}

// L1 returns the Manhattan distance between a and b.
// It panics if the slices have different lengths.
func L1(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += math.Abs(float64(a[i]) - float64(b[i]))
		s1 += math.Abs(float64(a[i+1]) - float64(b[i+1]))
		s2 += math.Abs(float64(a[i+2]) - float64(b[i+2]))
		s3 += math.Abs(float64(a[i+3]) - float64(b[i+3]))
	}
	for ; i < len(a); i++ {
		s0 += math.Abs(float64(a[i]) - float64(b[i]))
	}
	return s0 + s1 + s2 + s3
}

// Dot returns the inner product of a and b.
// It panics if the slices have different lengths.
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("vecmath: length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return s0 + s1 + s2 + s3
}

// Norm returns the Euclidean norm of a.
func Norm(a []float32) float64 {
	var s float64
	for _, v := range a {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
