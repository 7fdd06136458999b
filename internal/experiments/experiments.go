// Package experiments regenerates every table and figure of the paper's
// evaluation (§3) over the synthetic data sets: Table 1 (data set summary),
// Table 2 (index size and creation time), Figure 2 (original vs projected
// distances), Figure 3 (recall vs fraction of candidates), and Figure 4
// (improvement in efficiency vs recall). The cmd/ binaries and the top-level
// benchmarks are thin wrappers around this package.
//
// Each of the paper's nine data set / distance combinations is exposed as a
// Runner keyed by name:
//
//	sift cophir imagenet wiki-sparse wiki-8-kl wiki-8-js
//	wiki-128-kl wiki-128-js dna
package experiments

import (
	"fmt"
	"io"
	"time"
)

// Config scales an experiment. The paper runs 1-5M points with 200-1000
// queries and five splits on a 3.6GHz Xeon; the defaults here target a
// two-core container. All results scale with N; the *shape* of the curves
// is what the reproduction checks.
type Config struct {
	// N is the number of data points (queries are drawn from them).
	N int
	// Queries is the number of held-out query points per split.
	Queries int
	// Folds is the number of random splits (the paper uses 5).
	Folds int
	// K is the number of neighbors (the paper evaluates 10-NN).
	K int
	// Seed makes the whole experiment deterministic.
	Seed int64
	// Workers is the query-path parallelism: evaluation queries are
	// fanned out over this many goroutines via the batch engine
	// (internal/engine). 0 or 1 runs the paper's single-thread protocol;
	// results are identical either way, only the timing columns change
	// (per-query latency is then measured inside the workers and a
	// wall-clock QPS is reported). Negative means GOMAXPROCS.
	Workers int
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 5000
	}
	if c.Queries <= 0 {
		c.Queries = 100
	}
	if c.Queries >= c.N {
		c.Queries = c.N / 10
	}
	if c.Folds <= 0 {
		c.Folds = 1
	}
	if c.K <= 0 {
		c.K = 10
	}
	return c
}

// Runner regenerates the experiments for one data set / distance combo.
type Runner interface {
	// Name is the registry key, e.g. "wiki-8-kl".
	Name() string
	// Distance is the distance function's report name.
	Distance() string
	// Dims is the dimensionality column of Table 1 ("N/A" when not
	// applicable).
	Dims() string
	// Table1 writes this data set's Table 1 row.
	Table1(cfg Config, w io.Writer) error
	// Table2 writes index size/creation-time rows (Table 2).
	Table2(cfg Config, w io.Writer) error
	// Figure2 writes (stratum, kind, original, projected) sample pairs.
	Figure2(cfg Config, projDim, pairs int, w io.Writer) error
	// Figure3 writes (kind, dim, recall, fraction) curves.
	Figure3(cfg Config, dims []int, w io.Writer) error
	// RunMethods writes Figure 4's (method, params, recall, improvement,
	// ...) rows for the named methods; nil means all of them, i.e. the
	// whole figure.
	RunMethods(cfg Config, methods []string, w io.Writer) error
	// Methods lists the method names available for this data set.
	Methods(cfg Config) []string
	// tune runs the named tuner ("vptree" or "napp"); see Tune.
	tune(cfg Config, what string, target float64) (TuneResult, error)
}

// registry holds all combos in a fixed order.
var registry []Runner

// Get returns the runner registered under name.
func Get(name string) (Runner, bool) {
	for _, r := range registry {
		if r.Name() == name {
			return r, true
		}
	}
	return nil, false
}

// Names lists all registered combos in registration (paper Table 1) order.
func Names() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.Name()
	}
	return out
}

// tsv writes one tab-separated row.
func tsv(w io.Writer, cols ...interface{}) error {
	for i, c := range cols {
		if i > 0 {
			if _, err := fmt.Fprint(w, "\t"); err != nil {
				return err
			}
		}
		switch v := c.(type) {
		case float64:
			if _, err := fmt.Fprintf(w, "%.4g", v); err != nil {
				return err
			}
		case time.Duration:
			if _, err := fmt.Fprintf(w, "%.3fms", float64(v)/float64(time.Millisecond)); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprint(w, v); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
