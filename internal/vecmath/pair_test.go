package vecmath

import (
	"encoding/binary"
	"math"
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

// FuzzL2Pair feeds the pair kernel raw float32 bit patterns — NaNs, ±Inf,
// subnormals, the extremes — as three vectors x, a, b of one length. Both of
// its results must be L2Sqr's bits with the data point first, which is what
// space.Many returns, and with x first, which is what space.ManyFrom returns
// for a pivot ranking.
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
		x, a, b := vec(0), vec(1), vec(2)
		q := make([]float64, n)
		for i, v := range x {
			q[i] = float64(v)
		}
		ga, gb := L2SqrPair(q, a, b)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
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
	})
}
