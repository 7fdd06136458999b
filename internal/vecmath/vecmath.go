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
