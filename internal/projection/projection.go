// Package projection implements classic Gaussian random projections, the
// baseline that Figures 2 and 3 of the paper compare permutation-based
// projections against. Random projections approximately preserve inner
// products and distances (Johnson-Lindenstrauss); the paper contrasts their
// near-linear original-vs-projected distance relationship with the noisier
// permutation mappings.
package projection

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/space"
	"repro/internal/vecmath"
)

// Dense is a dense Gaussian random projection matrix R^in -> R^out.
type Dense struct {
	mat     []float32 // out x in, row-major
	in, out int
}

// NewDense samples an out x in Gaussian matrix with entries N(0, 1/out), so
// projected L2 distances are unbiased estimates of the originals.
func NewDense(r *rand.Rand, in, out int) (*Dense, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("projection: dimensions must be positive (in=%d out=%d)", in, out)
	}
	p := &Dense{mat: make([]float32, in*out), in: in, out: out}
	scale := 1 / math.Sqrt(float64(out))
	for i := range p.mat {
		p.mat[i] = float32(r.NormFloat64() * scale)
	}
	return p, nil
}

// Project maps v (length in) to a new vector of length out.
func (p *Dense) Project(v []float32) []float32 {
	if len(v) != p.in {
		panic(fmt.Sprintf("projection: vector has dim %d, want %d", len(v), p.in))
	}
	out := make([]float32, p.out)
	for o := 0; o < p.out; o++ {
		row := p.mat[o*p.in : (o+1)*p.in]
		out[o] = float32(vecmath.Dot(row, v))
	}
	return out
}

// Sparse projects sparse vectors without materializing the full projection
// matrix: entry (o, i) of the implicit Gaussian matrix is derived
// deterministically from (seed, o, i) with a splitmix64 hash and Box-Muller.
// This keeps memory independent of the vocabulary size (10^5 for
// Wiki-sparse).
type Sparse struct {
	seed int64
	out  int
}

// NewSparse creates a hashing Gaussian projection into out dimensions.
func NewSparse(seed int64, out int) (*Sparse, error) {
	if out <= 0 {
		return nil, fmt.Errorf("projection: out must be positive, got %d", out)
	}
	return &Sparse{seed: seed, out: out}, nil
}

// Project maps a sparse vector to a dense vector of length out.
func (p *Sparse) Project(v space.SparseVector) []float32 {
	out := make([]float32, p.out)
	scale := 1 / math.Sqrt(float64(p.out))
	for k, idx := range v.Idx {
		val := float64(v.Val[k])
		for o := 0; o < p.out; o++ {
			g := gaussAt(uint64(p.seed), uint64(idx), uint64(o))
			out[o] += float32(val * g * scale)
		}
	}
	return out
}

// gaussAt returns a deterministic standard normal for cell (i, o).
func gaussAt(seed, i, o uint64) float64 {
	u1 := toUniform(splitmix64(seed ^ mix(i, o)))
	u2 := toUniform(splitmix64(seed ^ mix(o+0x9e3779b97f4a7c15, i)))
	if u1 < 1e-300 {
		u1 = 1e-300
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

func mix(a, b uint64) uint64 {
	return splitmix64(a*0x9e3779b97f4a7c15 + b + 0x7f4a7c15)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func toUniform(x uint64) float64 {
	return float64(x>>11) / float64(1<<53)
}
