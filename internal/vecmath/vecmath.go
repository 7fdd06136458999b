// Package vecmath provides low-level dense-vector arithmetic used by the
// distance functions in package space.
//
// The paper's C++ implementation uses hand-written SIMD (SSE/AVX) for L2 and
// sparse intersections. Go's standard toolchain exposes no intrinsics, so the
// loops here are 4-way unrolled instead: on modern CPUs the Go compiler turns
// these into reasonably tight scalar code, and the *relative* cost model of
// the paper (L2 cheap, JS-div ~10-20x L2, SQFD ~100x L2) is preserved, which
// is what the reproduced experiments depend on.
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
// q once for two vectors and overlaps their memory latency. Because
// (a-x)² == (x-a)² exactly, they also equal L2Sqr(x, a) and L2Sqr(x, b).
// It panics if the lengths differ.
func L2SqrPair(q []float64, a, b []float32) (float64, float64) {
	if len(a) != len(q) || len(b) != len(q) {
		panic("vecmath: length mismatch")
	}
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

// DotRows sets dst[i] to the inner product of q, widened to float64, with
// row i of rows, a row-major matrix of len(dst) rows of len(q) values: a
// matrix-vector product blocked eight rows at a time, so each q[j] is loaded
// and widened once for eight rows and the eight sums are independent
// dependency chains. Each row's sum runs in index order with one
// accumulator. It panics if len(rows) != len(dst)*len(q).
func DotRows(dst []float64, q []float32, rows []float64) {
	n := len(q)
	if len(rows) != len(dst)*n {
		panic("vecmath: length mismatch")
	}
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		b := rows[i*n : (i+8)*n]
		r0, r1, r2, r3 := b[:n], b[n:][:n], b[2*n:][:n], b[3*n:][:n]
		r4, r5, r6, r7 := b[4*n:][:n], b[5*n:][:n], b[6*n:][:n], b[7*n:][:n]
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for j, f := range q {
			v := float64(f)
			s0 += v * r0[j]
			s1 += v * r1[j]
			s2 += v * r2[j]
			s3 += v * r3[j]
			s4 += v * r4[j]
			s5 += v * r5[j]
			s6 += v * r6[j]
			s7 += v * r7[j]
		}
		d := dst[i : i+8 : i+8]
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; i < len(dst); i++ {
		r := rows[i*n:][:n]
		var s float64
		for j, f := range q {
			s += float64(f) * r[j]
		}
		dst[i] = s
	}
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

// Scale multiplies every element of a by c, in place.
func Scale(a []float32, c float64) {
	for i := range a {
		a[i] = float32(float64(a[i]) * c)
	}
}

// Clone returns a copy of a.
func Clone(a []float32) []float32 {
	out := make([]float32, len(a))
	copy(out, a)
	return out
}
