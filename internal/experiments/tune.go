package experiments

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/vptree"
)

// TuneResult is the outcome of a tuning run.
type TuneResult struct {
	// Setting is the parameter in flag form, e.g. "alpha=4.25" or "t=3".
	Setting string
	// Recall achieved at that setting on the tuning subset.
	Recall float64
}

// Tune runs the named tuner ("vptree" or "napp") for the data set.
func Tune(dataset, what string, cfg Config, target float64) (TuneResult, error) {
	r, ok := Get(dataset)
	if !ok {
		return TuneResult{}, fmt.Errorf("experiments: unknown dataset %q", dataset)
	}
	if target <= 0 || target > 1 {
		return TuneResult{}, fmt.Errorf("experiments: recall target %v out of (0, 1]", target)
	}
	return r.tune(cfg, what, target)
}

// tune implements Runner. The tuning queries are the last cfg.Queries points
// of the data set, and each tuner builds its method as the method's Figure 4
// sweep does.
func (c *combo[T]) tune(cfg Config, what string, target float64) (TuneResult, error) {
	cfg = cfg.withDefaults()
	data := c.fam.Gen(cfg.Seed, cfg.N)
	db, queries := data[:len(data)-cfg.Queries], data[len(data)-cfg.Queries:]
	switch what {
	case "vptree":
		return c.tuneVPTree(cfg, db, queries, target)
	case "napp":
		return c.tuneNAPP(cfg, db, queries, target)
	default:
		return TuneResult{}, fmt.Errorf("experiments: unknown tuner %q (vptree, napp)", what)
	}
}

// tuneVPTree delegates to the shrinking grid search of package vptree.
func (c *combo[T]) tuneVPTree(cfg Config, db, queries []T, target float64) (TuneResult, error) {
	alpha, recall, err := vptree.Tune(c.sp, db, queries, cfg.K, target, vptree.Options{
		Beta: vptreeBeta(c.sp), Seed: cfg.Seed,
	})
	if err != nil {
		return TuneResult{}, err
	}
	return TuneResult{Setting: fmt.Sprintf("alpha=%.4g", alpha), Recall: recall}, nil
}

// tuneNAPP builds the data set's NAPP index once and picks the largest
// minimum-shared-pivots t whose recall meets the target (larger t = fewer
// candidates = faster, as in the paper's "smallest t that achieves a desired
// recall" — expressed over decreasing candidate budgets).
func (c *combo[T]) tuneNAPP(cfg Config, db, queries []T, target float64) (TuneResult, error) {
	var na index.Index[T]
	for _, s := range c.sweeps(cfg, len(db)) {
		if s.method == "napp" {
			var err error
			if na, err = s.build(c.sp, db); err != nil {
				return TuneResult{}, err
			}
		}
	}
	if na == nil {
		return TuneResult{}, fmt.Errorf("experiments: %s has no napp sweep", c.name)
	}
	truth := eval.GroundTruth(c.sp, db, queries, cfg.K)
	best := TuneResult{Setting: "t=1"}
	for t := 8; t >= 1; t-- {
		opts := index.Options{K: cfg.K, Params: index.Params{MinShared: t}}
		res := eval.Measure(na, queries, truth, opts, 1, 1)
		if res.Recall >= target {
			return TuneResult{Setting: fmt.Sprintf("t=%d", t), Recall: res.Recall}, nil
		}
		best = TuneResult{Setting: fmt.Sprintf("t=%d", t), Recall: res.Recall}
	}
	// Even t=1 missed the target; report the best achievable.
	return best, nil
}
