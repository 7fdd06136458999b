package space

import (
	"math"
	"math/rand"
	"testing"
)

func TestCounterCounts(t *testing.T) {
	c := NewCounter[[]float32](L2{})
	if c.Count() != 0 {
		t.Fatalf("fresh counter = %d", c.Count())
	}
	a := []float32{1, 2}
	b := []float32{3, 4}
	c.Distance(a, b)
	c.Distance(a, b)
	if c.Count() != 2 {
		t.Fatalf("Count = %d, want 2", c.Count())
	}
	if c.Name() != "l2" {
		t.Fatalf("Name = %q", c.Name())
	}
	if !c.Properties().Metric {
		t.Fatal("Counter must forward Properties")
	}
	c.Reset()
	if c.Count() != 0 {
		t.Fatalf("after Reset Count = %d", c.Count())
	}
}

func TestL2L1Known(t *testing.T) {
	a := []float32{0, 0}
	b := []float32{3, 4}
	if d := (L2{}).Distance(a, b); math.Abs(d-5) > 1e-9 {
		t.Fatalf("L2 = %v, want 5", d)
	}
	if d := (L1{}).Distance(a, b); math.Abs(d-7) > 1e-9 {
		t.Fatalf("L1 = %v, want 7", d)
	}
}

// symmetryCheck exercises d(x,y)==d(y,x) for spaces that promise symmetry.
func symmetryCheck[T any](t *testing.T, sp Space[T], gen func(r *rand.Rand) T) {
	t.Helper()
	if !sp.Properties().Symmetric {
		t.Fatalf("%s: test requires symmetric space", sp.Name())
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		x, y := gen(r), gen(r)
		dxy, dyx := sp.Distance(x, y), sp.Distance(y, x)
		if math.Abs(dxy-dyx) > 1e-9*(1+dxy) {
			t.Fatalf("%s: asymmetric: %v vs %v", sp.Name(), dxy, dyx)
		}
	}
}

// identityCheck exercises d(x,x)==0 (within float tolerance).
func identityCheck[T any](t *testing.T, sp Space[T], gen func(r *rand.Rand) T) {
	t.Helper()
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		x := gen(r)
		if d := sp.Distance(x, x); d > 1e-6 {
			t.Fatalf("%s: d(x,x) = %v", sp.Name(), d)
		}
	}
}

// nonNegativityCheck exercises d(x,y) >= 0.
func nonNegativityCheck[T any](t *testing.T, sp Space[T], gen func(r *rand.Rand) T) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		x, y := gen(r), gen(r)
		if d := sp.Distance(x, y); d < 0 {
			t.Fatalf("%s: negative distance %v", sp.Name(), d)
		}
	}
}

// triangleCheck exercises the triangle inequality for metric spaces.
func triangleCheck[T any](t *testing.T, sp Space[T], gen func(r *rand.Rand) T) {
	t.Helper()
	if !sp.Properties().Metric {
		t.Fatalf("%s: test requires metric space", sp.Name())
	}
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		x, y, z := gen(r), gen(r), gen(r)
		if sp.Distance(x, z) > sp.Distance(x, y)+sp.Distance(y, z)+1e-9 {
			t.Fatalf("%s: triangle inequality violated", sp.Name())
		}
	}
}

func genDense(dim int) func(r *rand.Rand) []float32 {
	return func(r *rand.Rand) []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(r.NormFloat64())
		}
		return v
	}
}

func genSparse(r *rand.Rand) SparseVector {
	nnz := 1 + r.Intn(20)
	seen := map[int32]bool{}
	idx := make([]int32, 0, nnz)
	val := make([]float32, 0, nnz)
	for len(idx) < nnz {
		i := int32(r.Intn(1000))
		if seen[i] {
			continue
		}
		seen[i] = true
		idx = append(idx, i)
		val = append(val, float32(r.Float64()+0.01))
	}
	sv, err := NewSparseVector(idx, val)
	if err != nil {
		panic(err)
	}
	return sv
}

func genHistogram(dim int) func(r *rand.Rand) Histogram {
	return func(r *rand.Rand) Histogram {
		p := make([]float32, dim)
		for i := range p {
			p[i] = float32(r.Float64())
		}
		return NewHistogram(p)
	}
}

func genDNA(r *rand.Rand) []byte { return randBytes(r, 16+r.Intn(32), 4) }

func genSignature(r *rand.Rand) Signature {
	nc := 2 + r.Intn(5)
	dim := 7
	w := make([]float32, nc)
	c := make([]float32, nc*dim)
	for i := range w {
		w[i] = float32(r.Float64() + 0.01)
	}
	for i := range c {
		c[i] = float32(r.NormFloat64())
	}
	sig, err := NewSignature(w, c, dim)
	if err != nil {
		panic(err)
	}
	return sig
}

func TestAxiomsDense(t *testing.T) {
	gen := genDense(16)
	for _, sp := range []Space[[]float32]{L2{}, L1{}} {
		symmetryCheck(t, sp, gen)
		identityCheck(t, sp, gen)
		nonNegativityCheck(t, sp, gen)
		triangleCheck(t, sp, gen)
	}
}

func TestAxiomsCosine(t *testing.T) {
	sp := CosineDistance{}
	symmetryCheck[SparseVector](t, sp, genSparse)
	identityCheck[SparseVector](t, sp, genSparse)
	nonNegativityCheck[SparseVector](t, sp, genSparse)
}

func TestAxiomsHistograms(t *testing.T) {
	gen := genHistogram(8)
	identityCheck[Histogram](t, KLDivergence{}, gen)
	nonNegativityCheck[Histogram](t, KLDivergence{}, gen)
	symmetryCheck[Histogram](t, JSDivergence{}, gen)
	identityCheck[Histogram](t, JSDivergence{}, gen)
	nonNegativityCheck[Histogram](t, JSDivergence{}, gen)
}

func TestAxiomsLevenshtein(t *testing.T) {
	symmetryCheck[[]byte](t, NormalizedLevenshtein{}, genDNA)
	identityCheck[[]byte](t, NormalizedLevenshtein{}, genDNA)
	nonNegativityCheck[[]byte](t, NormalizedLevenshtein{}, genDNA)
	triangleCheck[[]byte](t, Levenshtein{}, genDNA)
}

func TestAxiomsSQFD(t *testing.T) {
	symmetryCheck[Signature](t, SQFD{}, genSignature)
	identityCheck[Signature](t, SQFD{}, genSignature)
	nonNegativityCheck[Signature](t, SQFD{}, genSignature)
	triangleCheck[Signature](t, SQFD{}, genSignature)
}

func TestKLAsymmetry(t *testing.T) {
	// KL must be genuinely asymmetric on skewed histograms.
	x := NewHistogram([]float32{0.5, 0.5})
	y := NewHistogram([]float32{0.9, 0.1})
	kl := KLDivergence{}
	if math.Abs(kl.Distance(x, y)-kl.Distance(y, x)) < 1e-6 {
		t.Fatal("KL looks symmetric on skewed inputs; implementation suspect")
	}
	if kl.Properties().Symmetric {
		t.Fatal("KL must not claim symmetry")
	}
}

func TestKLKnownValue(t *testing.T) {
	// KL([1/2,1/2] || [1/4,3/4]) = 0.5 ln 2 + 0.5 ln(2/3)
	x := NewHistogram([]float32{0.5, 0.5})
	y := NewHistogram([]float32{0.25, 0.75})
	want := 0.5*math.Log(2) + 0.5*math.Log(2.0/3.0)
	if got := (KLDivergence{}).Distance(x, y); math.Abs(got-want) > 1e-5 {
		t.Fatalf("KL = %v, want %v", got, want)
	}
}

func TestJSBounded(t *testing.T) {
	// JS divergence is bounded by ln 2.
	r := rand.New(rand.NewSource(9))
	gen := genHistogram(32)
	for i := 0; i < 100; i++ {
		x, y := gen(r), gen(r)
		if d := (JSDivergence{}).Distance(x, y); d > math.Log(2)+1e-9 {
			t.Fatalf("JS = %v exceeds ln 2", d)
		}
	}
}

func TestHistogramFloorApplied(t *testing.T) {
	h := NewHistogram([]float32{0, 1})
	if h.P[0] <= 0 {
		t.Fatal("zero probability not floored")
	}
	var sum float64
	for _, v := range h.P {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-5 {
		t.Fatalf("histogram not normalized: sum = %v", sum)
	}
}

func TestSparseVectorValidation(t *testing.T) {
	if _, err := NewSparseVector([]int32{1, 1}, []float32{1, 2}); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := NewSparseVector([]int32{3, -4}, []float32{1, 2}); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := NewSparseVector([]int32{1}, []float32{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := NewSparseVector([]int32{1}, []float32{float32(math.NaN())}); err == nil {
		t.Fatal("NaN accepted")
	}
	sv, err := NewSparseVector([]int32{5, 1, 3}, []float32{5, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sv.Idx); i++ {
		if sv.Idx[i] <= sv.Idx[i-1] {
			t.Fatal("indices not sorted")
		}
	}
}

func TestSparseDotAgainstDense(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		dim := 1000 // genSparse draws indices in [0, 1000)
		da := make([]float64, dim)
		db := make([]float64, dim)
		a := genSparse(r)
		b := genSparse(r)
		for k, i := range a.Idx {
			da[i] = float64(a.Val[k])
		}
		for k, i := range b.Idx {
			db[i] = float64(b.Val[k])
		}
		var want float64
		for i := 0; i < dim; i++ {
			want += da[i] * db[i]
		}
		if got := SparseDot(a, b); math.Abs(got-want) > 1e-6 {
			t.Fatalf("SparseDot = %v, want %v", got, want)
		}
	}
}

func TestSparseDotGalloping(t *testing.T) {
	// Force the galloping path: one tiny vector against one large vector.
	r := rand.New(rand.NewSource(22))
	bigIdx := make([]int32, 1000)
	bigVal := make([]float32, 1000)
	for i := range bigIdx {
		bigIdx[i] = int32(i * 3)
		bigVal[i] = float32(r.Float64())
	}
	big, err := NewSparseVector(bigIdx, bigVal)
	if err != nil {
		t.Fatal(err)
	}
	small, err := NewSparseVector([]int32{3, 300, 2997, 5000}, []float32{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := 1*float64(bigVal[1]) + 2*float64(bigVal[100]) + 3*float64(bigVal[999])
	if got := SparseDot(small, big); math.Abs(got-want) > 1e-6 {
		t.Fatalf("gallop dot = %v, want %v", got, want)
	}
	if got := SparseDot(big, small); math.Abs(got-want) > 1e-6 {
		t.Fatalf("gallop dot (swapped) = %v, want %v", got, want)
	}
}

func TestCosineOrthogonalAndParallel(t *testing.T) {
	a, _ := NewSparseVector([]int32{0}, []float32{2})
	b, _ := NewSparseVector([]int32{1}, []float32{3})
	c, _ := NewSparseVector([]int32{0}, []float32{7})
	cd := CosineDistance{}
	if d := cd.Distance(a, b); math.Abs(d-1) > 1e-9 {
		t.Fatalf("orthogonal cosine distance = %v, want 1", d)
	}
	if d := cd.Distance(a, c); d > 1e-9 {
		t.Fatalf("parallel cosine distance = %v, want 0", d)
	}
	var zero SparseVector
	if d := cd.Distance(a, zero); d != 1 {
		t.Fatalf("zero-vector distance = %v, want 1", d)
	}
}

func TestEditDistanceKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"ACGT", "ACGT", 0},
		{"ACGT", "AGGT", 1},
		{"AAAA", "TTTT", 4},
	}
	for _, c := range cases {
		if got := EditDistance([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("EditDistance(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestNormalizedLevenshteinRange(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	nl := NormalizedLevenshtein{}
	for i := 0; i < 200; i++ {
		a, b := genDNA(r), genDNA(r)
		d := nl.Distance(a, b)
		if d < 0 || d > 1 {
			t.Fatalf("normalized Levenshtein out of [0,1]: %v", d)
		}
	}
	if d := nl.Distance(nil, nil); d != 0 {
		t.Fatalf("empty-empty = %v", d)
	}
}

func TestSignatureValidation(t *testing.T) {
	if _, err := NewSignature([]float32{1}, []float32{1, 2}, 3); err == nil {
		t.Fatal("bad centroid count accepted")
	}
	if _, err := NewSignature([]float32{-1}, []float32{1, 2, 3}, 3); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := NewSignature([]float32{0}, []float32{1, 2, 3}, 3); err == nil {
		t.Fatal("zero-sum weights accepted")
	}
	if _, err := NewSignature([]float32{1}, []float32{1, 2, 3}, 0); err == nil {
		t.Fatal("zero dim accepted")
	}
	s, err := NewSignature([]float32{1, 3}, make([]float32, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(s.Weights[0])-0.25) > 1e-6 {
		t.Fatalf("weights not normalized: %v", s.Weights)
	}
	if s.Clusters() != 2 {
		t.Fatalf("Clusters = %d", s.Clusters())
	}
	if len(s.Centroid(1)) != 2 {
		t.Fatalf("Centroid view wrong length")
	}
}

func TestSQFDIdenticalCentroidsDifferentWeights(t *testing.T) {
	// Signatures over the same centroids reduce to a kernel distance on
	// the weight vectors; distance must be zero iff weights equal.
	c := []float32{0, 0, 1, 1} // two 2-d centroids
	a, _ := NewSignature([]float32{0.5, 0.5}, c, 2)
	b, _ := NewSignature([]float32{0.9, 0.1}, c, 2)
	d := (SQFD{}).Distance(a, b)
	if d <= 0 {
		t.Fatalf("distinct signatures at distance %v", d)
	}
}

// TestSQFDSelfTermCached pins that hoisting each signature's own block of
// the quadratic form into NewSignature changed no bit of any distance: the
// three terms are the same sums, added in the same order.
func TestSQFDSelfTermCached(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		x, y := genSignature(r), genSignature(r)
		if x.self != selfTerm(x) {
			t.Fatalf("NewSignature cached self term %v, recomputed %v", x.self, selfTerm(x))
		}
		want := math.Sqrt(max(0, selfTerm(x)+selfTerm(y)-2*crossTerm(x, y, x.Dim)))
		if got := (SQFD{}).Distance(x, y); got != want {
			t.Fatalf("SQFD = %v, recomputing form gives %v", got, want)
		}
		// A signature assembled without NewSignature has nothing cached
		// and must answer the same.
		bare := Signature{Weights: x.Weights, Centroids: x.Centroids, Dim: x.Dim}
		if got := (SQFD{}).Distance(bare, y); got != want {
			t.Fatalf("SQFD over a literal signature = %v, want %v", got, want)
		}
	}
}

func TestSQFDDimMismatchPanics(t *testing.T) {
	a, _ := NewSignature([]float32{1}, []float32{0, 0}, 2)
	b, _ := NewSignature([]float32{1}, []float32{0, 0, 0}, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dim mismatch")
		}
	}()
	(SQFD{}).Distance(a, b)
}
