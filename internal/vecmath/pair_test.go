package vecmath

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sameBits reports whether got and want are the same float64 bit pattern,
// counting any two NaNs as the same: a NaN result carries the payload of
// whichever NaN operand the compiled code happens to put first — the
// compiler may swap the operands of a commutative add — and no comparison
// can observe it.
func sameBits(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

// widen returns x converted to float64, as space.Many passes it to the pair
// kernel.
func widen(x []float32) []float64 {
	q := make([]float64, len(x))
	for i, v := range x {
		q[i] = float64(v)
	}
	return q
}

// checkPair asserts that both results of L2SqrPair are the bits of
// l2SqrPairGeneric, the Go loop the SSE2 kernel replaces on amd64, and of
// L2Sqr with the data point first, which is what space.Many returns, and with
// x first, which is what space.ManyFrom returns for a pivot ranking.
func checkPair(t *testing.T, x, a, b []float32) {
	t.Helper()
	q := widen(x)
	ga, gb := L2SqrPair(q, a, b)
	wa, wb := l2SqrPairGeneric(q, a, b)
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"generic a", ga, wa},
		{"generic b", gb, wb},
		{"L2Sqr(a, x)", ga, L2Sqr(a, x)},
		{"L2Sqr(b, x)", gb, L2Sqr(b, x)},
		{"L2Sqr(x, a)", ga, L2Sqr(x, a)},
		{"L2Sqr(x, b)", gb, L2Sqr(x, b)},
	} {
		if !sameBits(c.got, c.want) {
			t.Fatalf("x=%v a=%v b=%v: pair kernel gave %v (%#x), %s = %v (%#x)",
				x, a, b, c.got, math.Float64bits(c.got), c.name, c.want, math.Float64bits(c.want))
		}
	}
}

// TestL2SqrPairMatchesGeneric holds the pair kernel to the Go loop bit for
// bit over widths 0–129 (every count of four-element blocks up to 32 and
// every len%4 tail), at magnitudes from the smallest float32 subnormal to
// MaxFloat32, with a NaN, +Inf or -Inf put in one lane of x, a or b — in a
// block or in the tail — and with +Inf in one lane of x and a, whose
// difference is NaN, beside -Inf in that lane of b.
func TestL2SqrPairMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	scales := []float64{0x1p-149, 1e-40, 1e-20, 1, 1e20, math.MaxFloat32}
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}
	for width := 0; width <= 129; width++ {
		vec := func(scale float64) []float32 {
			v := make([]float32, width)
			for i := range v {
				// Clamped so a MaxFloat32 scale stays finite.
				v[i] = float32(max(-math.MaxFloat32, min(math.MaxFloat32, r.NormFloat64()*scale)))
			}
			return v
		}
		for _, scale := range scales {
			x, a, b := vec(scale), vec(scale), vec(scale)
			checkPair(t, x, a, b)
			// Each vector at its own magnitude: cancellation and absorption.
			checkPair(t, x, vec(scales[r.Intn(len(scales))]), vec(scales[r.Intn(len(scales))]))
			if width == 0 {
				continue
			}
			for _, sp := range specials {
				for k := range 3 {
					vs := [][]float32{slices.Clone(x), slices.Clone(a), slices.Clone(b)}
					vs[k][r.Intn(width)] = sp
					vs[k][width-1] = sp // the last lane: the tail when width%4 != 0
					checkPair(t, vs[0], vs[1], vs[2])
				}
			}
			j := r.Intn(width)
			xi, ai, bi := slices.Clone(x), slices.Clone(a), slices.Clone(b)
			xi[j], ai[j], bi[j] = float32(math.Inf(1)), float32(math.Inf(1)), float32(math.Inf(-1))
			checkPair(t, xi, ai, bi)
		}
	}
}

// TestPrefetchBounds calls Prefetch on the lengths around its 16-float
// cache line and on a slice that ends where its backing array ends, at every
// 4-byte offset into a line. A prefetch changes no value, so no differential
// test can see it; this one checks that the line loop returns, on empty
// slices too, and leaves the floats as they were.
func TestPrefetchBounds(t *testing.T) {
	Prefetch(nil)
	Prefetch([]float32{})
	for _, n := range []int{1, 15, 16, 17, 128, 129} {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(i)
		}
		Prefetch(v)
		for i, x := range v {
			if x != float32(i) {
				t.Fatalf("Prefetch of %d floats changed v[%d] to %v", n, i, x)
			}
		}
	}
	backing := make([]float32, 64)
	for off := range 16 {
		Prefetch(backing[off:])
		Prefetch(backing[len(backing)-off:])
	}
}

// FuzzL2Pair feeds the pair kernel raw float32 bit patterns — NaNs, ±Inf,
// subnormals, the extremes — as three vectors x, a, b of one length, and
// holds both results to checkPair: the Go loop's bits and L2Sqr's, in either
// argument order.
func FuzzL2Pair(f *testing.F) {
	le := func(bits ...uint32) []byte {
		var out []byte
		for _, b := range bits {
			out = binary.LittleEndian.AppendUint32(out, b)
		}
		return out
	}
	const nan, negNaN, sNaN, inf, negInf = 0x7fc00000, 0xffc00001, 0x7f800001, 0x7f800000, 0xff800000
	const sub, maxF, negZero, one = 0x00000001, 0x7f7fffff, 0x80000000, 0x3f800000
	f.Add([]byte{})
	f.Add(le(one, sub, negZero))
	f.Add(le(nan, negNaN, one, inf, inf, negInf))
	f.Add(le(sNaN, nan, sub, maxF, negInf, maxF, negZero, one, sub, inf, one, nan, maxF, sub, sub))
	// Ordinary values, 7 lanes, picked so that both a and b round
	// differently when the 3-lane tail goes to the second accumulator
	// instead of the first, as L2Sqr's does.
	var plain []uint32
	for i := range 21 {
		plain = append(plain, math.Float32bits(float32(math.Sin(float64(209*i*i+1)))))
	}
	f.Add(le(plain...))
	f.Add(le(maxF, maxF, maxF, maxF, negZero, negZero, negZero, negZero, sub, one, sub, one, inf, inf, negInf, negInf,
		nan, negNaN, one, sub, maxF))
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 12
		vec := func(k int) []float32 {
			v := make([]float32, n)
			for i := range v {
				v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(k*n+i):]))
			}
			return v
		}
		checkPair(t, vec(0), vec(1), vec(2))
	})
}

var sinkPair float64

// BenchmarkL2SqrPair is one pass of the pair kernel at SIFT's 128
// dimensions, beside -generic, the Go loop it replaces on amd64.
func BenchmarkL2SqrPair(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	vec := func() []float32 {
		v := make([]float32, 128)
		for i := range v {
			v[i] = float32(r.Intn(256))
		}
		return v
	}
	q, x, y := widen(vec()), vec(), vec()
	for _, k := range []struct {
		name string
		fn   func(q []float64, a, b []float32) (float64, float64)
	}{{"dim128", L2SqrPair}, {"dim128-generic", l2SqrPairGeneric}} {
		b.Run(k.name, func(b *testing.B) {
			for b.Loop() {
				da, db := k.fn(q, x, y)
				sinkPair += da + db
			}
		})
	}
}
