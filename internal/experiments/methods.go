package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/lsh"
	"repro/internal/space"
	"repro/internal/vptree"
)

// Every sweep's variants are index.ParseParams-syntax labels: the label printed in
// the Figure 4 and `repro methods` output is literally the string that
// reproduces the setting in a serving request.

// vptreeBeta is the VP-tree's polynomial-pruner exponent under sp: 2 for
// the KL-divergence (§3.2), 1 otherwise.
func vptreeBeta[T any](sp space.Space[T]) float64 {
	if sp.Name() == "kldiv" {
		return 2
	}
	return 1
}

// vptreeSweep builds one VP-tree and traces its curve by varying the
// pruning stretch alpha (exact metric pruning at alpha = 1; larger = faster
// and less accurate).
func vptreeSweep[T any](alphas []float64, seed int64) sweep[T] {
	s := sweep[T]{
		method: "vptree",
		table2: true,
		build: func(sp space.Space[T], db []T) (index.Index[T], error) {
			return vptree.New(sp, db, vptree.Options{Beta: vptreeBeta(sp), Seed: seed})
		},
	}
	for _, a := range alphas {
		s.variants = append(s.variants, fmt.Sprintf("alpha=%g", a))
	}
	return s
}

// graphVariants are the query-time (attempts, ef) settings tracing a
// proximity graph's recall/efficiency curve.
func graphVariants(k int) []string {
	type cfg struct {
		att, ef int
	}
	var out []string
	for _, c := range []cfg{{1, k}, {2, 2 * k}, {4, 4 * k}, {8, 8 * k}} {
		out = append(out, fmt.Sprintf("att=%d,ef=%d", c.att, c.ef))
	}
	return out
}

// swSweep is the Small World proximity graph (Malkov et al.).
func swSweep[T any](k int, seed int64) sweep[T] {
	return sweep[T]{
		method: "sw-graph",
		table2: true,
		build: func(sp space.Space[T], db []T) (index.Index[T], error) {
			return knngraph.NewSW(sp, db, knngraph.Options{NN: 10, InitAttempts: 2, Seed: seed})
		},
		variants: graphVariants(k),
	}
}

// nndescentSweep is the NN-descent proximity graph (Dong et al.), used by
// the paper for DNA and Wiki-8 with JS-divergence.
func nndescentSweep[T any](k int, seed int64) sweep[T] {
	return sweep[T]{
		method: "nndescent-graph",
		table2: false,
		build: func(sp space.Space[T], db []T) (index.Index[T], error) {
			return knngraph.NewNNDescent(sp, db, knngraph.Options{NN: 10, Seed: seed})
		},
		variants: graphVariants(k),
	}
}

// nappSweep traces NAPP's curve by varying the minimum number of shared
// pivots t (smaller = higher recall, more candidates).
func nappSweep[T any](n int, seed int64) sweep[T] {
	m := 512
	if m > n/4 {
		m = n / 4
	}
	if m < 8 {
		m = 8
	}
	s := sweep[T]{
		method: "napp",
		table2: true,
		build: func(sp space.Space[T], db []T) (index.Index[T], error) {
			return core.NewNAPP(sp, db, core.NAPPOptions{
				NumPivots: m, NumPivotIndex: 16, MinShared: 1, Seed: seed,
			})
		},
	}
	for _, t := range []int{4, 3, 2, 1} {
		s.variants = append(s.variants, fmt.Sprintf("t=%d", t))
	}
	return s
}

// gammaVariants trace a filter's curve by the candidate fraction gamma.
func gammaVariants() []string {
	var out []string
	for _, g := range []float64{0.002, 0.01, 0.05, 0.2} {
		out = append(out, fmt.Sprintf("gamma=%g", g))
	}
	return out
}

// bfSweep traces the brute-force permutation filter's curve by varying the
// candidate fraction gamma.
func bfSweep[T any](n int, seed int64) sweep[T] {
	m := 128
	if m > n {
		m = n
	}
	return sweep[T]{
		method: "brute-force-filt",
		table2: true,
		build: func(sp space.Space[T], db []T) (index.Index[T], error) {
			return core.NewBruteForceFilter(sp, db, core.BruteForceOptions{
				NumPivots: m, Seed: seed,
			})
		},
		variants: gammaVariants(),
	}
}

// binSweep is brute-force filtering over binarized permutations (twice the
// pivots of the full filter, per §3.2).
func binSweep[T any](n int, seed int64) sweep[T] {
	m := 256
	if m > n {
		m = n
	}
	return sweep[T]{
		method: "brute-force-filt-bin",
		table2: false,
		build: func(sp space.Space[T], db []T) (index.Index[T], error) {
			return core.NewBinFilter(sp, db, core.BinFilterOptions{
				NumPivots: m, Seed: seed,
			})
		},
		variants: gammaVariants(),
	}
}

// quantSweep is brute-force filtering over 4-bit quantized permutation
// prefixes: the PR 8 signature between full permutations and binarized
// sketches.
func quantSweep[T any](n int, seed int64) sweep[T] {
	m := 64
	if m > n {
		m = n
	}
	return sweep[T]{
		method: "brute-force-filt-quant",
		table2: false,
		build: func(sp space.Space[T], db []T) (index.Index[T], error) {
			return core.NewQuantFilter(sp, db, core.QuantFilterOptions{
				NumPivots: m, Seed: seed,
			})
		},
		variants: gammaVariants(),
	}
}

// mplshSweep is multi-probe LSH; L2 over dense vectors only, as in the
// paper. The curve is traced by the probe count T.
func mplshSweep(seed int64) sweep[[]float32] {
	s := sweep[[]float32]{
		method: "mplsh",
		table2: true,
		build: func(_ space.Space[[]float32], db [][]float32) (index.Index[[]float32], error) {
			return lsh.New(db, lsh.Options{Tables: 16, Hashes: 12, Seed: seed})
		},
	}
	for _, t := range []int{2, 10, 30, 80} {
		s.variants = append(s.variants, fmt.Sprintf("T=%d", t))
	}
	return s
}
