package projection

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/space"
	"repro/internal/vecmath"
)

func TestDenseValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if _, err := NewDense(r, 0, 4); err == nil {
		t.Fatal("in=0 accepted")
	}
	if _, err := NewDense(r, 4, 0); err == nil {
		t.Fatal("out=0 accepted")
	}
	p, err := NewDense(r, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.out != 4 {
		t.Fatalf("out = %d", p.out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input dim should panic")
		}
	}()
	p.Project([]float32{1})
}

func TestDensePreservesDistances(t *testing.T) {
	// JL property: with out=64, projected distances correlate strongly
	// with originals over random 32-d vectors.
	r := rand.New(rand.NewSource(2))
	p, err := NewDense(r, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	var ratioSum, ratioSq float64
	const trials = 300
	for i := 0; i < trials; i++ {
		a := make([]float32, 32)
		b := make([]float32, 32)
		for j := range a {
			a[j] = float32(r.NormFloat64())
			b[j] = float32(r.NormFloat64())
		}
		orig := vecmath.L2(a, b)
		proj := vecmath.L2(p.Project(a), p.Project(b))
		ratio := proj / orig
		ratioSum += ratio
		ratioSq += ratio * ratio
	}
	mean := ratioSum / trials
	sd := math.Sqrt(ratioSq/trials - mean*mean)
	if math.Abs(mean-1) > 0.1 {
		t.Fatalf("mean distance ratio %v, want ~1", mean)
	}
	if sd > 0.2 {
		t.Fatalf("ratio sd %v too large for out=64", sd)
	}
}

func TestDenseLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p, err := NewDense(r, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]float32, 8)
	for j := range a {
		a[j] = float32(r.NormFloat64())
	}
	pa := p.Project(a)
	a2 := vecmath.Clone(a)
	vecmath.Scale(a2, 2)
	pa2 := p.Project(a2)
	for i := range pa {
		if math.Abs(float64(pa2[i]-2*pa[i])) > 1e-4 {
			t.Fatalf("projection not linear at %d: %v vs %v", i, pa2[i], 2*pa[i])
		}
	}
}

func TestSparseDeterministic(t *testing.T) {
	sv, err := space.NewSparseVector([]int32{3, 100, 5000}, []float32{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := NewSparse(7, 32)
	p2, _ := NewSparse(7, 32)
	a, b := p1.Project(sv), p2.Project(sv)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different projections")
		}
	}
	p3, _ := NewSparse(8, 32)
	c := p3.Project(sv)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical projections")
	}
}

func TestSparsePreservesCosine(t *testing.T) {
	// Cosine similarity between sparse vectors must correlate with the
	// cosine of their projections (panel 2b of the paper).
	r := rand.New(rand.NewSource(4))
	p, err := NewSparse(9, 128)
	if err != nil {
		t.Fatal(err)
	}
	cos := func(a, b []float32) float64 {
		na, nb := vecmath.Norm(a), vecmath.Norm(b)
		if na == 0 || nb == 0 {
			return 0
		}
		return vecmath.Dot(a, b) / (na * nb)
	}
	gen := func() space.SparseVector {
		nnz := 20 + r.Intn(30)
		seen := map[int32]bool{}
		var idx []int32
		var val []float32
		for len(idx) < nnz {
			i := int32(r.Intn(10000))
			if seen[i] {
				continue
			}
			seen[i] = true
			idx = append(idx, i)
			val = append(val, float32(r.Float64()))
		}
		sv, err := space.NewSparseVector(idx, val)
		if err != nil {
			t.Fatal(err)
		}
		return sv
	}
	cd := space.CosineDistance{}
	var worst float64
	for i := 0; i < 50; i++ {
		a, b := gen(), gen()
		origCos := 1 - cd.Distance(a, b)
		projCos := cos(p.Project(a), p.Project(b))
		if d := math.Abs(origCos - projCos); d > worst {
			worst = d
		}
	}
	if worst > 0.35 {
		t.Fatalf("worst cosine deviation %v too large at out=128", worst)
	}
}

func TestSparseValidation(t *testing.T) {
	if _, err := NewSparse(1, 0); err == nil {
		t.Fatal("out=0 accepted")
	}
}

func TestGaussAtMoments(t *testing.T) {
	var sum, sq float64
	const n = 20000
	for i := 0; i < n; i++ {
		g := gaussAt(42, uint64(i), uint64(i%64))
		sum += g
		sq += g * g
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("hashed gaussian mean %v", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("hashed gaussian variance %v", variance)
	}
}
