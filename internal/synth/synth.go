// Package synth provides the random-distribution substrates behind the
// synthetic data sets: Gaussian mixtures (CoPhIR/SIFT stand-ins), Dirichlet
// sampling (LDA topic histograms), Zipf-distributed vocabularies (TF-IDF
// text), and Markov-chain genomes (DNA). Every generator is deterministic
// given a *rand.Rand, so experiments are reproducible from a single seed.
package synth

import (
	"math"
	"math/rand"
)

// GaussianMixture generates dense vectors from a mixture of k anisotropic
// Gaussian clusters in dim dimensions. Cluster centers are drawn uniformly
// from [0, spread]^dim and each cluster gets its own per-axis standard
// deviations, giving the moderate intrinsic dimensionality that real visual
// descriptors (SIFT, MPEG7) exhibit.
type GaussianMixture struct {
	Dim      int
	centers  [][]float32
	sigmas   [][]float32
	weights  []float64 // cumulative
	clampLo  float32
	clampHi  float32
	hasClamp bool
}

// NewGaussianMixture builds a mixture with k clusters in dim dimensions.
// spread controls how far apart cluster centers lie relative to the
// within-cluster deviation sigma (larger spread = more clustered data).
func NewGaussianMixture(r *rand.Rand, dim, k int, spread, sigma float64) *GaussianMixture {
	if dim <= 0 || k <= 0 {
		panic("synth: dim and k must be positive")
	}
	g := &GaussianMixture{Dim: dim}
	g.centers = make([][]float32, k)
	g.sigmas = make([][]float32, k)
	raw := make([]float64, k)
	var sum float64
	for c := 0; c < k; c++ {
		center := make([]float32, dim)
		sg := make([]float32, dim)
		for d := 0; d < dim; d++ {
			center[d] = float32(r.Float64() * spread)
			// Anisotropy: each axis gets sigma scaled by U(0.3, 1.7).
			sg[d] = float32(sigma * (0.3 + 1.4*r.Float64()))
		}
		g.centers[c] = center
		g.sigmas[c] = sg
		raw[c] = 0.2 + r.Float64() // uneven cluster sizes
		sum += raw[c]
	}
	g.weights = make([]float64, k)
	acc := 0.0
	for c := 0; c < k; c++ {
		acc += raw[c] / sum
		g.weights[c] = acc
	}
	return g
}

// Clamp restricts generated coordinates to [lo, hi], e.g. [0, 255] for
// SIFT-like byte-valued descriptors.
func (g *GaussianMixture) Clamp(lo, hi float32) *GaussianMixture {
	g.clampLo, g.clampHi, g.hasClamp = lo, hi, true
	return g
}

// Sample draws one vector.
func (g *GaussianMixture) Sample(r *rand.Rand) []float32 {
	c := g.pickCluster(r)
	v := make([]float32, g.Dim)
	center, sg := g.centers[c], g.sigmas[c]
	for d := 0; d < g.Dim; d++ {
		x := float64(center[d]) + r.NormFloat64()*float64(sg[d])
		if g.hasClamp {
			if x < float64(g.clampLo) {
				x = float64(g.clampLo)
			} else if x > float64(g.clampHi) {
				x = float64(g.clampHi)
			}
		}
		v[d] = float32(x)
	}
	return v
}

func (g *GaussianMixture) pickCluster(r *rand.Rand) int {
	u := r.Float64()
	for c, w := range g.weights {
		if u <= w {
			return c
		}
	}
	return len(g.weights) - 1
}

// SampleN draws n vectors.
func (g *GaussianMixture) SampleN(r *rand.Rand, n int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		out[i] = g.Sample(r)
	}
	return out
}

// Dirichlet samples a probability vector from a Dirichlet distribution with
// the given concentration parameters, via normalized Gamma draws.
func Dirichlet(r *rand.Rand, alpha []float64) []float32 {
	out := make([]float32, len(alpha))
	var sum float64
	g := make([]float64, len(alpha))
	for i, a := range alpha {
		g[i] = gammaSample(r, a)
		sum += g[i]
	}
	if sum == 0 {
		// Degenerate draw (can happen for tiny alphas): fall back to uniform.
		for i := range out {
			out[i] = 1 / float32(len(alpha))
		}
		return out
	}
	for i := range out {
		out[i] = float32(g[i] / sum)
	}
	return out
}

// gammaSample draws from Gamma(shape, 1) using the Marsaglia-Tsang method,
// with Johnk-style boosting for shape < 1.
func gammaSample(r *rand.Rand, shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return gammaSample(r, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Zipf draws integers in [0, n) with probability proportional to
// 1/(rank+q)^s — the classic model of natural-language word frequencies
// behind the Wiki-sparse TF-IDF generator.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf creates a Zipf sampler over [0, n) with exponent s > 1.
func NewZipf(r *rand.Rand, s float64, n uint64) *Zipf {
	return &Zipf{z: rand.NewZipf(r, s, 1, n-1)}
}

// Sample draws one rank.
func (z *Zipf) Sample() uint64 { return z.z.Uint64() }

// MarkovText generates byte strings from an order-2 Markov chain over a
// finite alphabet. The DNA data set uses it as a stand-in for the human
// genome: substring sampling from one long synthetic chromosome preserves
// the local-repetitiveness that makes edit-distance search non-trivial.
type MarkovText struct {
	Alphabet []byte
	// trans[a][b] is the cumulative distribution over the next symbol
	// given the previous two symbols a, b.
	trans [][][]float64
}

// NewMarkovText builds a random order-2 chain over the alphabet. The
// concentration parameter skew controls how deterministic transitions are
// (larger = more repetitive output).
func NewMarkovText(r *rand.Rand, alphabet []byte, skew float64) *MarkovText {
	k := len(alphabet)
	if k < 2 {
		panic("synth: alphabet must have at least two symbols")
	}
	m := &MarkovText{Alphabet: append([]byte(nil), alphabet...)}
	m.trans = make([][][]float64, k)
	for a := 0; a < k; a++ {
		m.trans[a] = make([][]float64, k)
		for b := 0; b < k; b++ {
			alphas := make([]float64, k)
			for c := range alphas {
				alphas[c] = 1 / skew
			}
			probs := Dirichlet(r, alphas)
			cum := make([]float64, k)
			acc := 0.0
			for c := 0; c < k; c++ {
				acc += float64(probs[c])
				cum[c] = acc
			}
			cum[k-1] = 1
			m.trans[a][b] = cum
		}
	}
	return m
}

// Generate produces a string of length n.
func (m *MarkovText) Generate(r *rand.Rand, n int) []byte {
	k := len(m.Alphabet)
	out := make([]byte, n)
	a, b := r.Intn(k), r.Intn(k)
	for i := 0; i < n; i++ {
		cum := m.trans[a][b]
		u := r.Float64()
		c := 0
		for c < k-1 && u > cum[c] {
			c++
		}
		out[i] = m.Alphabet[c]
		a, b = b, c
	}
	return out
}

// NormalInt samples round(N(mean, sd)) clamped to at least minVal; the DNA
// experiment samples sequence lengths from N(32, 4).
func NormalInt(r *rand.Rand, mean, sd float64, minVal int) int {
	v := int(math.Round(r.NormFloat64()*sd + mean))
	if v < minVal {
		v = minVal
	}
	return v
}
