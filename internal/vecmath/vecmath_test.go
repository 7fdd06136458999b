package vecmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func TestL2SqrKnown(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{5, 4, 3, 2, 1}
	// (4^2 + 2^2 + 0 + 2^2 + 4^2) = 40
	if got := L2Sqr(a, b); got != 40 {
		t.Fatalf("L2Sqr = %v, want 40", got)
	}
	if got := L2(a, b); !almostEqual(got, math.Sqrt(40), 1e-12) {
		t.Fatalf("L2 = %v, want sqrt(40)", got)
	}
}

func TestL1Known(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5}
	b := []float32{5, 4, 3, 2, 1}
	if got := L1(a, b); got != 12 {
		t.Fatalf("L1 = %v, want 12", got)
	}
}

func TestDotKnown(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestEmptyVectors(t *testing.T) {
	if got := L2Sqr(nil, nil); got != 0 {
		t.Fatalf("L2Sqr(nil,nil) = %v, want 0", got)
	}
	if got := L1(nil, nil); got != 0 {
		t.Fatalf("L1(nil,nil) = %v, want 0", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"L2Sqr":       func() { L2Sqr([]float32{1}, []float32{1, 2}) },
		"L1":          func() { L1([]float32{1}, []float32{1, 2}) },
		"Dot":         func() { Dot([]float32{1}, []float32{1, 2}) },
		"L2SqrPair/a": func() { L2SqrPair([]float64{1}, []float32{1, 2}, []float32{1}) },
		"L2SqrPair/b": func() { L2SqrPair([]float64{1}, []float32{1}, []float32{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}

// naive reference implementations used by property tests.
func naiveL2Sqr(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

func naiveL1(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += math.Abs(float64(a[i]) - float64(b[i]))
	}
	return s
}

func naiveDot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func randomPair(r *rand.Rand) ([]float32, []float32) {
	n := r.Intn(50)
	a := make([]float32, n)
	b := make([]float32, n)
	for i := range a {
		a[i] = float32(r.NormFloat64())
		b[i] = float32(r.NormFloat64())
	}
	return a, b
}

func TestUnrolledMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a, b := randomPair(r)
		if got, want := L2Sqr(a, b), naiveL2Sqr(a, b); !almostEqual(got, want, 1e-10) {
			t.Fatalf("L2Sqr mismatch: got %v want %v (len %d)", got, want, len(a))
		}
		if got, want := L1(a, b), naiveL1(a, b); !almostEqual(got, want, 1e-10) {
			t.Fatalf("L1 mismatch: got %v want %v", got, want)
		}
		if got, want := Dot(a, b), naiveDot(a, b); !almostEqual(got, want, 1e-10) {
			t.Fatalf("Dot mismatch: got %v want %v", got, want)
		}
	}
}

func TestL2PropertiesQuick(t *testing.T) {
	// Symmetry and identity of L2 over random vectors.
	symm := func(raw []float32) bool {
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		return almostEqual(L2Sqr(a, b), L2Sqr(b, a), 1e-9)
	}
	if err := quick.Check(symm, nil); err != nil {
		t.Errorf("L2 symmetry: %v", err)
	}
	ident := func(a []float32) bool {
		return L2Sqr(a, a) == 0
	}
	if err := quick.Check(ident, nil); err != nil {
		t.Errorf("L2 identity: %v", err)
	}
}

func TestTriangleInequalityL2(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(20)
		a, b, c := make([]float32, n), make([]float32, n), make([]float32, n)
		for j := 0; j < n; j++ {
			a[j] = float32(r.NormFloat64())
			b[j] = float32(r.NormFloat64())
			c[j] = float32(r.NormFloat64())
		}
		if L2(a, c) > L2(a, b)+L2(b, c)+1e-9 {
			t.Fatalf("triangle inequality violated")
		}
		if L1(a, c) > L1(a, b)+L1(b, c)+1e-9 {
			t.Fatalf("L1 triangle inequality violated")
		}
	}
}

func BenchmarkL2Sqr128(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := make([]float32, 128)
	y := make([]float32, 128)
	for i := range x {
		x[i] = float32(r.Float64())
		y[i] = float32(r.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		L2Sqr(x, y)
	}
}
