package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/vptree"
)

// tuneVPTree implements the tuner interface: it delegates to the shrinking
// grid search of package vptree on a held-out query sample.
func (c *combo[T]) tuneVPTree(cfg Config, target float64) (TuneResult, error) {
	cfg = cfg.withDefaults()
	data := c.fam.Gen(cfg.Seed, cfg.N)
	db, queries := data[:len(data)-cfg.Queries], data[len(data)-cfg.Queries:]
	alpha, recall, err := vptree.Tune(c.sp, db, queries, cfg.K, target, vptree.Options{
		Beta: c.vptreeBeta(), Seed: cfg.Seed,
	})
	if err != nil {
		return TuneResult{}, err
	}
	return TuneResult{Setting: fmt.Sprintf("alpha=%.4g", alpha), Recall: recall}, nil
}

// vptreeBeta returns the polynomial-pruner exponent for this space (2 for
// the KL-divergence per §3.2, 1 otherwise).
func (c *combo[T]) vptreeBeta() float64 {
	if c.Distance() == "kldiv" {
		return 2
	}
	return 1
}

// tuneNAPP implements the tuner interface: it builds one NAPP index and
// picks the largest minimum-shared-pivots t whose recall meets the target
// (larger t = fewer candidates = faster, as in the paper's "smallest t that
// achieves a desired recall" — expressed over decreasing candidate budgets).
func (c *combo[T]) tuneNAPP(cfg Config, target float64) (TuneResult, error) {
	cfg = cfg.withDefaults()
	data := c.fam.Gen(cfg.Seed, cfg.N)
	db, queries := data[:len(data)-cfg.Queries], data[len(data)-cfg.Queries:]
	truth := eval.GroundTruth(c.sp, db, queries, cfg.K)

	m := 512
	if m > len(db)/4 {
		m = len(db) / 4
	}
	if m < 8 {
		m = 8
	}
	na, err := core.NewNAPP(c.sp, db, core.NAPPOptions{
		NumPivots: m, NumPivotIndex: 16, MinShared: 1, Seed: cfg.Seed,
	})
	if err != nil {
		return TuneResult{}, err
	}
	best := TuneResult{Setting: "t=1"}
	for t := 8; t >= 1; t-- {
		opts := index.Options{K: cfg.K, Params: index.Params{MinShared: t}}
		res := eval.Measure[T](na, queries, truth, opts, 1, 1)
		if res.Recall >= target {
			return TuneResult{Setting: fmt.Sprintf("t=%d", t), Recall: res.Recall}, nil
		}
		best = TuneResult{Setting: fmt.Sprintf("t=%d", t), Recall: res.Recall}
	}
	// Even t=1 missed the target; report the best achievable.
	return best, nil
}
