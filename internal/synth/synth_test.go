package synth

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestGaussianMixtureBasics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := NewGaussianMixture(r, 16, 4, 100, 5)
	vs := g.SampleN(r, 200)
	if len(vs) != 200 {
		t.Fatalf("got %d samples", len(vs))
	}
	for _, v := range vs {
		if len(v) != 16 {
			t.Fatalf("dim = %d", len(v))
		}
		for _, x := range v {
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				t.Fatal("non-finite sample")
			}
		}
	}
}

func TestGaussianMixtureClamp(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := NewGaussianMixture(r, 8, 3, 255, 60).Clamp(0, 255)
	for i := 0; i < 500; i++ {
		for _, x := range g.Sample(r) {
			if x < 0 || x > 255 {
				t.Fatalf("clamped sample out of range: %v", x)
			}
		}
	}
}

func TestGaussianMixtureClustered(t *testing.T) {
	// With huge spread and tiny sigma, points from the same cluster are
	// far closer to each other than to other clusters; verify bimodality
	// by checking the mixture generates at least 2 distinct "locations".
	r := rand.New(rand.NewSource(3))
	g := NewGaussianMixture(r, 2, 2, 1000, 0.01)
	vs := g.SampleN(r, 100)
	distinct := map[[2]int]bool{}
	for _, v := range vs {
		distinct[[2]int{int(v[0] / 100), int(v[1] / 100)}] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("expected clustered structure, got %d cells", len(distinct))
	}
	if len(distinct) > 6 {
		t.Fatalf("expected tight clusters, got %d cells", len(distinct))
	}
}

func TestGaussianMixturePanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for dim=0")
		}
	}()
	NewGaussianMixture(r, 0, 1, 1, 1)
}

func TestDirichletSumsToOne(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		p := Dirichlet(r, slices.Repeat([]float64{0.2}, 8))
		var sum float64
		for _, v := range p {
			if v < 0 {
				t.Fatalf("negative probability %v", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("sum = %v", sum)
		}
	}
}

func TestDirichletConcentration(t *testing.T) {
	// Small alpha should give much spikier draws than large alpha:
	// compare average max element.
	r := rand.New(rand.NewSource(5))
	avgMax := func(alpha float64) float64 {
		var s float64
		for i := 0; i < 200; i++ {
			p := Dirichlet(r, slices.Repeat([]float64{alpha}, 16))
			mx := p[0]
			for _, v := range p {
				if v > mx {
					mx = v
				}
			}
			s += float64(mx)
		}
		return s / 200
	}
	spiky := avgMax(0.05)
	flat := avgMax(50)
	if spiky < flat+0.2 {
		t.Fatalf("alpha=0.05 avg max %v not spikier than alpha=50 avg max %v", spiky, flat)
	}
}

func TestDirichletDegenerate(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	p := Dirichlet(r, []float64{0, 0})
	if p[0] != 0.5 || p[1] != 0.5 {
		t.Fatalf("degenerate Dirichlet = %v, want uniform", p)
	}
}

func TestGammaSampleMoments(t *testing.T) {
	// Gamma(shape, 1) has mean == shape. Check within loose tolerance.
	r := rand.New(rand.NewSource(7))
	for _, shape := range []float64{0.5, 1, 3, 10} {
		var s float64
		const n = 20000
		for i := 0; i < n; i++ {
			s += gammaSample(r, shape)
		}
		mean := s / n
		if math.Abs(mean-shape) > 0.1*shape+0.05 {
			t.Fatalf("Gamma(%v) sample mean %v", shape, mean)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	z := NewZipf(r, 1.5, 10000)
	counts := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		counts[z.Sample()]++
	}
	// Rank 0 must dominate, and the tail must exist.
	if counts[0] < counts[5] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[5]=%d", counts[0], counts[5])
	}
	if len(counts) < 50 {
		t.Fatalf("Zipf support too narrow: %d distinct values", len(counts))
	}
}

func TestMarkovText(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m := NewMarkovText(r, []byte("ACGT"), 2)
	s := m.Generate(r, 10000)
	if len(s) != 10000 {
		t.Fatalf("len = %d", len(s))
	}
	seen := map[byte]int{}
	for _, b := range s {
		seen[b]++
	}
	for _, b := range []byte("ACGT") {
		if seen[b] == 0 {
			t.Fatalf("symbol %c never generated", b)
		}
	}
	for b := range seen {
		switch b {
		case 'A', 'C', 'G', 'T':
		default:
			t.Fatalf("alien symbol %c", b)
		}
	}
}

func TestMarkovTextPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 1-symbol alphabet")
		}
	}()
	NewMarkovText(r, []byte("A"), 1)
}

func TestNormalInt(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	var sum, n float64
	for i := 0; i < 5000; i++ {
		v := NormalInt(r, 32, 4, 4)
		if v < 4 {
			t.Fatalf("below floor: %d", v)
		}
		sum += float64(v)
		n++
	}
	mean := sum / n
	if math.Abs(mean-32) > 1 {
		t.Fatalf("mean length %v, want ~32", mean)
	}
}

func TestDeterminism(t *testing.T) {
	gen := func() []float32 {
		r := rand.New(rand.NewSource(99))
		g := NewGaussianMixture(r, 8, 3, 10, 1)
		return g.Sample(r)
	}
	a, b := gen(), gen()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different samples")
		}
	}
}
