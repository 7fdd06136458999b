package permutation

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/space"
)

// figure1 reconstructs the Voronoi example of Figure 1 in the paper: four
// pivots and four data points a, b, c, d in the Euclidean plane whose induced
// permutations are (in the paper's 1-based notation) (1,2,3,4), (1,2,4,3),
// (2,3,1,4) and (3,2,4,1).
func figure1() (pivots *Pivots[[]float32], a, b, c, d []float32) {
	pts := [][]float32{
		{0, 0},     // pi1
		{2, 0},     // pi2
		{0, 4},     // pi3
		{2.5, 3.5}, // pi4
	}
	var err error
	pivots, err = NewPivots[[]float32](space.L2{}, pts)
	if err != nil {
		panic(err)
	}
	a = []float32{0.5, 0.1} // order pi1, pi2, pi3, pi4
	b = []float32{0.9, 0.8} // order pi1, pi2, pi4, pi3
	c = []float32{0, 2.04}  // order pi3, pi1, pi2, pi4
	d = []float32{3.2, 1.8} // order pi4, pi2, pi1, pi3
	return pivots, a, b, c, d
}

func eq32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFigure1Permutations(t *testing.T) {
	pivots, a, b, c, d := figure1()
	// 0-based versions of the paper's permutations.
	want := map[string][]int32{
		"a": {0, 1, 2, 3},
		"b": {0, 1, 3, 2},
		"c": {1, 2, 0, 3},
		"d": {2, 1, 3, 0},
	}
	got := map[string][]int32{
		"a": pivots.Permutation(a, nil),
		"b": pivots.Permutation(b, nil),
		"c": pivots.Permutation(c, nil),
		"d": pivots.Permutation(d, nil),
	}
	for name := range want {
		if !eq32(got[name], want[name]) {
			t.Errorf("permutation of %s = %v, want %v", name, got[name], want[name])
		}
	}
}

func TestFigure1Footrule(t *testing.T) {
	pivots, a, b, c, d := figure1()
	pa := pivots.Permutation(a, nil)
	pb := pivots.Permutation(b, nil)
	pc := pivots.Permutation(c, nil)
	pd := pivots.Permutation(d, nil)
	// Paper: Footrule(a,b)=2, (a,c)=4, (a,d)=6.
	if got := Footrule(pa, pb); got != 2 {
		t.Errorf("Footrule(a,b) = %v, want 2", got)
	}
	if got := Footrule(pa, pc); got != 4 {
		t.Errorf("Footrule(a,c) = %v, want 4", got)
	}
	if got := Footrule(pa, pd); got != 6 {
		t.Errorf("Footrule(a,d) = %v, want 6", got)
	}
}

func TestFigure1Binarized(t *testing.T) {
	pivots, a, b, c, d := figure1()
	// Paper uses 1-based threshold b=3; ranks >= 3 become ones. Our ranks
	// are 0-based, so the equivalent threshold is 2.
	bin := func(x []float32) Binary {
		return Binarize(pivots.Permutation(x, nil), 2, nil)
	}
	ba, bb, bc, bd := bin(a), bin(b), bin(c), bin(d)
	if got := Hamming(ba, bb); got != 0 {
		t.Errorf("Hamming(a,b) = %d, want 0", got)
	}
	if got := Hamming(ba, bc); got != 2 {
		t.Errorf("Hamming(a,c) = %d, want 2", got)
	}
	if got := Hamming(ba, bd); got != 2 {
		t.Errorf("Hamming(a,d) = %d, want 2", got)
	}
}

func TestFigure1Order(t *testing.T) {
	pivots, _, b, _, _ := figure1()
	// b's closest-first order is pi1, pi2, pi4, pi3 -> 0,1,3,2.
	if got := pivots.Order(b, nil); !eq32(got, []int32{0, 1, 3, 2}) {
		t.Errorf("order of b = %v", got)
	}
}

func TestOrderPermutationInverse(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	data := make([][]float32, 64)
	for i := range data {
		data[i] = []float32{float32(r.NormFloat64()), float32(r.NormFloat64()), float32(r.NormFloat64())}
	}
	pv, err := Sample[[]float32](r, space.L2{}, data, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := data[r.Intn(len(data))]
		order := pv.Order(x, nil)
		perm := pv.Permutation(x, nil)
		if !IsPermutation(order) || !IsPermutation(perm) {
			t.Fatal("not a permutation")
		}
		if !eq32(Invert(order), perm) {
			t.Fatalf("Invert(order) != perm: %v vs %v", Invert(order), perm)
		}
		if !eq32(Invert(perm), order) {
			t.Fatalf("Invert(perm) != order")
		}
	}
}

func TestTieBreakingSmallestIndex(t *testing.T) {
	// Two pivots equidistant from x: the smaller index must rank first.
	pts := [][]float32{{1, 0}, {-1, 0}, {0, 5}}
	pv, err := NewPivots[[]float32](space.L2{}, pts)
	if err != nil {
		t.Fatal(err)
	}
	x := []float32{0, 0}
	order := pv.Order(x, nil)
	if !eq32(order, []int32{0, 1, 2}) {
		t.Fatalf("tie-broken order = %v, want [0 1 2]", order)
	}
}

func TestSampleValidation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	data := [][]float32{{1}, {2}}
	if _, err := Sample[[]float32](r, space.L2{}, data, 0); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := Sample[[]float32](r, space.L2{}, data, 3); err == nil {
		t.Fatal("m>n accepted")
	}
	if _, err := NewPivots[[]float32](space.L2{}, nil); err == nil {
		t.Fatal("empty pivots accepted")
	}
	pv, err := Sample[[]float32](r, space.L2{}, data, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pv.M() != 2 || len(pv.Items()) != 2 {
		t.Fatalf("M=%d", pv.M())
	}
	if pv.Space().Name() != "l2" {
		t.Fatalf("space = %q", pv.Space().Name())
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	data := make([][]float32, 100)
	for i := range data {
		data[i] = []float32{float32(i)}
	}
	pv, err := Sample[[]float32](r, space.L2{}, data, 100)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float32]bool{}
	for _, it := range pv.Items() {
		if seen[it[0]] {
			t.Fatal("pivot sampled twice")
		}
		seen[it[0]] = true
	}
}

func randPerm(r *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for i, v := range r.Perm(n) {
		p[i] = int32(v)
	}
	return p
}

func TestRhoEqualsSquaredL2(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		n := 1 + r.Intn(64)
		a, b := randPerm(r, n), randPerm(r, n)
		var l2 float64
		for j := range a {
			d := float64(a[j] - b[j])
			l2 += d * d
		}
		if got := SpearmanRho(a, b); got != l2 {
			t.Fatalf("rho = %v, squared L2 = %v", got, l2)
		}
		if got := (RhoMetric{}).Distance(a, b); math.Abs(got-math.Sqrt(l2)) > 1e-12 {
			t.Fatalf("RhoMetric = %v", got)
		}
	}
}

func TestFootruleEqualsL1(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		n := 1 + r.Intn(64)
		a, b := randPerm(r, n), randPerm(r, n)
		var l1 float64
		for j := range a {
			l1 += math.Abs(float64(a[j] - b[j]))
		}
		if got := Footrule(a, b); got != l1 {
			t.Fatalf("footrule = %v, L1 = %v", got, l1)
		}
	}
}

func TestPermDistancePanicsOnMismatch(t *testing.T) {
	for name, f := range map[string]func(){
		"rho":      func() { SpearmanRho([]int32{0}, []int32{0, 1}) },
		"footrule": func() { Footrule([]int32{0}, []int32{0, 1}) },
		"hamming":  func() { Hamming(Binary{0}, Binary{0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBinarizeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(200)
		p := randPerm(r, n)
		th := int32(r.Intn(n + 1))
		b := Binarize(p, th, nil)
		if len(b) != BinaryWords(n) {
			t.Fatalf("len = %d, want %d", len(b), BinaryWords(n))
		}
		for i, v := range p {
			if b.Bit(i) != (v >= th) {
				t.Fatalf("bit %d wrong (perm %d, threshold %d)", i, v, th)
			}
		}
		// Number of ranks >= th is exactly n - th.
		wantOnes := n - int(th)
		if wantOnes < 0 {
			wantOnes = 0
		}
		if got := b.OnesCount(); got != wantOnes {
			t.Fatalf("OnesCount = %d, want %d", got, wantOnes)
		}
	}
}

func TestHammingMatchesNaive(t *testing.T) {
	f := func(aw, bw []uint64) bool {
		n := len(aw)
		if len(bw) < n {
			n = len(bw)
		}
		a, b := Binary(aw[:n]), Binary(bw[:n])
		want := 0
		for i := 0; i < n*64; i++ {
			if a.Bit(i) != b.Bit(i) {
				want++
			}
		}
		return Hamming(a, b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBinarizeReusesBuffer(t *testing.T) {
	p := randPerm(rand.New(rand.NewSource(7)), 128)
	buf := make(Binary, 2)
	out := Binarize(p, 64, buf)
	if &out[0] != &buf[0] {
		t.Fatal("buffer not reused")
	}
	// A second binarization into the same buffer must fully reset it.
	p2 := make([]int32, 128) // all ranks zero-ish (not a permutation; fine for Binarize)
	out2 := Binarize(p2, 64, out)
	if out2.OnesCount() != 0 {
		t.Fatal("stale bits after reuse")
	}
}

func TestSpacesImplementInterfaces(t *testing.T) {
	var _ space.Space[[]int32] = RhoMetric{}
	if !(RhoMetric{}).Properties().Metric {
		t.Fatal("sqrt rho should be metric")
	}
}

func TestDistancesLeftArgumentConvention(t *testing.T) {
	// With an asymmetric space, Distances must pass the point as the
	// data (left) argument.
	asym := asymSpace{}
	pv, err := NewPivots[float64](asym, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	d := pv.Distances(2, nil)
	// asymSpace.Distance(data=2, query=1) = 2*2 - 1 = 3.
	if d[0] != 3 {
		t.Fatalf("got %v: pivot distance used wrong argument order", d[0])
	}
}

// asymSpace is deliberately asymmetric: d(x, y) = |2x - y|.
type asymSpace struct{}

func (asymSpace) Distance(data, query float64) float64 { return math.Abs(2*data - query) }
func (asymSpace) Name() string                         { return "asym" }
func (asymSpace) Properties() space.Properties         { return space.Properties{} }

func BenchmarkPermutationM128(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	data := make([][]float32, 1000)
	for i := range data {
		v := make([]float32, 64)
		for j := range v {
			v[j] = float32(r.NormFloat64())
		}
		data[i] = v
	}
	pv, err := Sample[[]float32](r, space.L2{}, data, 128)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pv.Permutation(data[i%len(data)], nil)
	}
}

func BenchmarkHamming256(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x := Binarize(randPerm(r, 256), 128, nil)
	y := Binarize(randPerm(r, 256), 128, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hamming(x, y)
	}
}

// TestScratchEntryPointsMatchAllocating verifies OrderWith/PermutationWith
// return exactly what the allocating Order/Permutation return, and that a
// warm Scratch makes them allocation-free.
func TestScratchEntryPointsMatchAllocating(t *testing.T) {
	pivots, a, b, c, d := figure1()
	var s Scratch
	for _, x := range [][]float32{a, b, c, d} {
		wantOrder := pivots.Order(x, nil)
		if got := pivots.OrderWith(&s, x); !eq32(got, wantOrder) {
			t.Fatalf("OrderWith = %v, want %v", got, wantOrder)
		}
		wantPerm := pivots.Permutation(x, nil)
		if got := pivots.PermutationWith(&s, x); !eq32(got, wantPerm) {
			t.Fatalf("PermutationWith = %v, want %v", got, wantPerm)
		}
	}
	if avg := testing.AllocsPerRun(20, func() {
		pivots.PermutationWith(&s, a)
	}); avg != 0 {
		t.Errorf("warm PermutationWith allocates %v times per run", avg)
	}
	if avg := testing.AllocsPerRun(20, func() {
		pivots.OrderWith(&s, b)
	}); avg != 0 {
		t.Errorf("warm OrderWith allocates %v times per run", avg)
	}
}

// TestClosestWithIsOrderPrefix verifies the partial selection against the
// full sort for every prefix length, on a pivot set drawn from a small
// integer lattice so that equidistant pivots — the canonical
// smaller-index-first tie-break — occur in almost every query.
func TestClosestWithIsOrderPrefix(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	point := func() []float32 { return []float32{float32(r.Intn(5)), float32(r.Intn(5))} }
	items := make([][]float32, 70)
	for i := range items {
		items[i] = point()
	}
	pivots, err := NewPivots[[]float32](space.L2{}, items)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	for trial := 0; trial < 40; trial++ {
		x := point()
		order := pivots.Order(x, nil)
		for _, n := range []int{-1, 0, 1, 2, 11, 12, 13, 32, 69, 70, 71} {
			want := order[:max(0, min(n, len(order)))]
			if got := pivots.ClosestWith(&s, x, n); !eq32(got, want) {
				t.Fatalf("ClosestWith(%v, %d) = %v, want %v", x, n, got, want)
			}
		}
	}
	x := point()
	if avg := testing.AllocsPerRun(20, func() {
		pivots.ClosestWith(&s, x, 16)
	}); avg != 0 {
		t.Errorf("warm ClosestWith allocates %v times per run", avg)
	}
}
