package experiments

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/projection"
	"repro/internal/space"
)

// metricAlphas and genericAlphas are the VP-tree pruning sweeps: metric
// spaces start exact (alpha = 1), non-metric spaces also probe alpha < 1
// (less pruning than the triangle inequality would allow).
var (
	metricAlphas  = []float64{1, 2, 4, 8, 16, 32}
	genericAlphas = []float64{0.25, 0.5, 1, 2, 4, 8}
)

// denseRandProj returns a dense Gaussian projector factory for vectors of
// dimensionality dim.
func denseRandProj(inDim int) func(seed int64, out int) func([]float32) []float32 {
	return func(seed int64, out int) func([]float32) []float32 {
		p, err := projection.NewDense(rand.New(rand.NewSource(seed)), inDim, out)
		if err != nil {
			panic(err)
		}
		return p.Project
	}
}

// corpus is a registry row's data set and distance, both resolved in the
// data-set table (internal/dataset): the family's generator and Table 1
// dims, and one of the distances it admits.
type corpus[T any] struct {
	fam *dataset.Family[T]
	sp  space.Space[T]
}

// from resolves a registry row; a name or tag the table refuses is a typo
// in this file.
func from[T any](family, dist string) corpus[T] {
	fam, err := dataset.Typed[T](family)
	if err != nil {
		panic("experiments: registry: " + err.Error())
	}
	sp, err := fam.Space(dist)
	if err != nil {
		panic("experiments: registry: " + err.Error())
	}
	return corpus[T]{fam, sp}
}

func init() {
	// SIFT: 128-d visual descriptors under L2 (Figure 4a, 2a/2e, 3a/3d);
	// CoPhIR: 282-d MPEG7 descriptors under L2 (Figure 4b). The dense sets
	// and DNA also sweep the survey's other permutation methods.
	dense := func(name string, dim int) *combo[[]float32] {
		return &combo[[]float32]{
			name:     name,
			corpus:   from[[]float32](name, "l2"),
			bytesOf:  func(v []float32) int64 { return int64(len(v))*4 + 24 },
			randProj: denseRandProj(dim),
			sweeps: func(cfg Config, n int) []sweep[[]float32] {
				return append([]sweep[[]float32]{
					vptreeSweep[[]float32](metricAlphas, cfg.Seed),
					mplshSweep(cfg.Seed),
					swSweep[[]float32](cfg.K, cfg.Seed),
					nappSweep[[]float32](n, cfg.Seed),
					bfSweep[[]float32](n, cfg.Seed),
				}, surveySweeps[[]float32](cfg.Seed)...)
			},
		}
	}
	registry = append(registry, dense("sift", 128), dense("cophir", 282))

	// ImageNet: SQFD signatures (Figure 4c, 3h); expensive metric
	// distance, so the binarized filter competes here.
	registry = append(registry, &combo[space.Signature]{
		name:   "imagenet",
		corpus: from[space.Signature]("imagenet", "sqfd"),
		bytesOf: func(s space.Signature) int64 {
			return int64(len(s.Weights))*4 + int64(len(s.Centroids))*4 + 48
		},
		sweeps: func(cfg Config, n int) []sweep[space.Signature] {
			return []sweep[space.Signature]{
				vptreeSweep[space.Signature](metricAlphas, cfg.Seed),
				swSweep[space.Signature](cfg.K, cfg.Seed),
				nappSweep[space.Signature](n, cfg.Seed),
				bfSweep[space.Signature](n, cfg.Seed),
				binSweep[space.Signature](n, cfg.Seed),
				quantSweep[space.Signature](n, cfg.Seed),
			}
		},
	})

	// Wiki-sparse: sparse TF-IDF under cosine distance (Figure 4i,
	// 2b/2f, 3b/3e).
	registry = append(registry, &combo[space.SparseVector]{
		name:    "wiki-sparse",
		corpus:  from[space.SparseVector]("wiki-sparse", "cosine"),
		bytesOf: func(v space.SparseVector) int64 { return int64(v.NNZ())*8 + 32 },
		randProj: func(seed int64, out int) func(space.SparseVector) []float32 {
			p, err := projection.NewSparse(seed, out)
			if err != nil {
				panic(err)
			}
			return p.Project
		},
		randCos: true,
		sweeps: func(cfg Config, n int) []sweep[space.SparseVector] {
			return []sweep[space.SparseVector]{
				vptreeSweep[space.SparseVector](genericAlphas, cfg.Seed),
				swSweep[space.SparseVector](cfg.K, cfg.Seed),
				nappSweep[space.SparseVector](n, cfg.Seed),
				bfSweep[space.SparseVector](n, cfg.Seed),
			}
		},
	})

	// Wiki-8 / Wiki-128 topic histograms under KL- and JS-divergence
	// (Figures 4d/4e/4g/4h, 2c/2g/2h, 3c/3f/3i).
	histo := func(name, family, dist string, withNNDescent bool) *combo[space.Histogram] {
		return &combo[space.Histogram]{
			name:    name,
			corpus:  from[space.Histogram](family, dist),
			bytesOf: func(h space.Histogram) int64 { return int64(len(h.P))*8 + 24 },
			sweeps: func(cfg Config, n int) []sweep[space.Histogram] {
				out := []sweep[space.Histogram]{
					vptreeSweep[space.Histogram](genericAlphas, cfg.Seed),
					swSweep[space.Histogram](cfg.K, cfg.Seed),
					nappSweep[space.Histogram](n, cfg.Seed),
					bfSweep[space.Histogram](n, cfg.Seed),
				}
				if withNNDescent {
					out = append(out, nndescentSweep[space.Histogram](cfg.K, cfg.Seed))
				}
				return out
			},
		}
	}
	registry = append(registry,
		histo("wiki-8-kl", "wiki-8", "kldiv", false),
		histo("wiki-8-js", "wiki-8", "jsdiv", true),
		histo("wiki-128-kl", "wiki-128", "kldiv", false),
		histo("wiki-128-js", "wiki-128", "jsdiv", false),
	)

	// DNA: normalized Levenshtein over short reads (Figure 4f, 2d, 3g);
	// the binarized filter is the paper's winner here.
	registry = append(registry, &combo[[]byte]{
		name:    "dna",
		corpus:  from[[]byte]("dna", "normleven"),
		bytesOf: func(s []byte) int64 { return int64(len(s)) + 24 },
		sweeps: func(cfg Config, n int) []sweep[[]byte] {
			return append([]sweep[[]byte]{
				vptreeSweep[[]byte](genericAlphas, cfg.Seed),
				swSweep[[]byte](cfg.K, cfg.Seed),
				nndescentSweep[[]byte](cfg.K, cfg.Seed),
				nappSweep[[]byte](n, cfg.Seed),
				bfSweep[[]byte](n, cfg.Seed),
				binSweep[[]byte](n, cfg.Seed),
				quantSweep[[]byte](n, cfg.Seed),
			}, surveySweeps[[]byte](cfg.Seed)...)
		},
	})
}
