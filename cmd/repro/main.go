// Command repro is the one experiment front end: it regenerates the paper's
// tables and figures over the synthetic data sets, benchmarks any method on
// any data set, and runs the paper's tuning procedures — one target per
// invocation, TSV on stdout:
//
//	repro table1  [-n 5000] [-queries 100] [-k 10] [-seed 1] [-datasets sift,dna,...]
//	repro table2  [-n 5000] [-k 10] [-seed 1] [-datasets ...]
//	repro figure2 [-n 2000] [-dim 64] [-pairs 250] [-seed 1] [-datasets ...]
//	repro figure3 [-n 2000] [-queries 100] [-k 10] [-dims 16,64,256,1024] [-seed 1] [-datasets ...]
//	repro figure4 [-n 5000] [-queries 100] [-folds 1] [-k 10] [-workers 1] [-seed 1] [-datasets ...]
//	repro methods -dataset sift [-method napp,vptree] [-n 5000] [-queries 100] [-folds 1] [-k 10]
//	              [-workers 1] [-seed 1]
//	repro methods -list
//	repro tune    [-what vptree|napp] [-dataset sift] [-target 0.9] [-n 2000] [-queries 100] [-k 10] [-seed 1]
//
// table1 is the data set summary (distance, record count, single-thread
// brute-force 10-NN query time, in-memory size, dimensionality); table2 is
// index size and creation time per method; figure2 samples original-space
// vs projected-space distances for random and permutation projections from
// two strata (random pairs and 100-NN pairs); figure3 is the fraction of
// candidates scanned in projected-space order to reach a given recall;
// figure4 is the paper's main result, improvement in efficiency
// (brute-force time / method time) vs 10-NN recall per method. Each of
// these prints its column names as a "# ..." header line.
//
// methods is the free-form harness: figure4's rows for the named methods
// only (default: all the data set has), and -list enumerates the data sets
// with their methods. Like figure4, it builds one in-memory index per method
// and split. -workers fans evaluation queries out over the batch engine
// (internal/engine); results are identical to the single-thread protocol,
// and the qps column reports the wall-clock throughput achieved.
//
// tune reproduces the paper's parameter tuning (§3.2, §3.3) on a subset of
// the data, so that recall lands in the 0.85-0.95 band: the VP-tree's
// pruning stretch alpha (-what vptree) or NAPP's minimum shared pivots t
// (-what napp), printed as the setting to pass to the other targets.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// target is one subcommand: its header line (none when empty), its default
// data sets (nil: all nine), and the runner method that prints its rows.
type target struct {
	header string
	names  []string
	run    func(r experiments.Runner, cfg experiments.Config) error
}

// targets maps a subcommand to a function that registers the target's own
// flags on fs (filling cfg when parsed) and returns the target.
var targets = map[string]func(fs *flag.FlagSet, cfg *experiments.Config) *target{
	"table1": func(fs *flag.FlagSet, cfg *experiments.Config) *target {
		fs.IntVar(&cfg.N, "n", 5000, "points per data set")
		fs.IntVar(&cfg.Queries, "queries", 100, "query count")
		fs.IntVar(&cfg.K, "k", 10, "neighbors per query")
		return &target{
			header: "# Table 1: dataset\tdistance\trecords\tbrute-force-10NN\tin-memory\tdims",
			run:    func(r experiments.Runner, cfg experiments.Config) error { return r.Table1(cfg, os.Stdout) },
		}
	},
	"table2": func(fs *flag.FlagSet, cfg *experiments.Config) *target {
		fs.IntVar(&cfg.N, "n", 5000, "points per data set")
		fs.IntVar(&cfg.K, "k", 10, "neighbors per query (affects method defaults)")
		return &target{
			header: "# Table 2: dataset\tmethod\tindex-size\tcreation-time",
			run:    func(r experiments.Runner, cfg experiments.Config) error { return r.Table2(cfg, os.Stdout) },
		}
	},
	"figure2": func(fs *flag.FlagSet, cfg *experiments.Config) *target {
		fs.IntVar(&cfg.N, "n", 2000, "points per data set (the paper samples from 1M)")
		dim := fs.Int("dim", 64, "projection dimensionality (paper: 64)")
		pairs := fs.Int("pairs", 250, "sample pairs per stratum")
		return &target{
			header: "# Figure 2: dataset\tkind\tstratum\toriginal\tprojected",
			// The paper's eight panels: rand-proj for SIFT and Wiki-sparse,
			// perm for the rest (the runners emit both kinds where applicable).
			names: []string{"sift", "wiki-sparse", "wiki-8-kl", "dna", "wiki-128-kl", "wiki-128-js"},
			run: func(r experiments.Runner, cfg experiments.Config) error {
				return r.Figure2(cfg, *dim, *pairs, os.Stdout)
			},
		}
	},
	"figure3": func(fs *flag.FlagSet, cfg *experiments.Config) *target {
		fs.IntVar(&cfg.N, "n", 2000, "points per data set (the paper uses 1M)")
		fs.IntVar(&cfg.Queries, "queries", 100, "query count")
		fs.IntVar(&cfg.K, "k", 10, "neighbors per query")
		dims := []int{16, 64, 256, 1024}
		fs.Func("dims", "projection dimensionalities (default 16,64,256,1024)", func(s string) error {
			dims = dims[:0]
			for _, f := range strings.Split(s, ",") {
				d, err := strconv.Atoi(strings.TrimSpace(f))
				if err != nil || d <= 0 {
					return fmt.Errorf("bad dimension %q", f)
				}
				dims = append(dims, d)
			}
			return nil
		})
		return &target{
			header: "# Figure 3: dataset\tkind\tdim\trecall\tfraction",
			// The paper's nine panels.
			names: []string{"sift", "wiki-sparse", "wiki-8-kl", "wiki-128-kl", "dna", "imagenet", "wiki-128-js"},
			run: func(r experiments.Runner, cfg experiments.Config) error {
				return r.Figure3(cfg, dims, os.Stdout)
			},
		}
	},
	"figure4": func(fs *flag.FlagSet, cfg *experiments.Config) *target {
		fs.IntVar(&cfg.N, "n", 5000, "points per data set (the paper uses 1-5M)")
		fs.IntVar(&cfg.Queries, "queries", 100, "query count per split")
		fs.IntVar(&cfg.Folds, "folds", 1, "random splits (paper: 5)")
		fs.IntVar(&cfg.K, "k", 10, "neighbors per query")
		fs.IntVar(&cfg.Workers, "workers", 1, "goroutines running evaluation queries (1 = single-thread protocol, -1 = GOMAXPROCS)")
		return &target{
			header: "# Figure 4: dataset\tmethod\tparams\trecall\timprovement\tquery-time\tqps\tbuild-time\tindex-size",
			run:    func(r experiments.Runner, cfg experiments.Config) error { return r.RunMethods(cfg, nil, os.Stdout) },
		}
	},
	"methods": func(fs *flag.FlagSet, cfg *experiments.Config) *target {
		fs.Var(fs.Lookup("datasets").Value, "dataset", "same as -datasets")
		method := fs.String("method", "", "comma-separated methods (default: all for the data set)")
		fs.IntVar(&cfg.N, "n", 5000, "points")
		fs.IntVar(&cfg.Queries, "queries", 100, "query count per split")
		fs.IntVar(&cfg.Folds, "folds", 1, "random splits")
		fs.IntVar(&cfg.K, "k", 10, "neighbors per query")
		fs.IntVar(&cfg.Workers, "workers", 1, "goroutines running evaluation queries (1 = the paper's single-thread protocol, -1 = GOMAXPROCS); results are identical, only throughput changes")
		t := &target{
			header: "# dataset\tmethod\tparams\trecall\timprovement\tquery-time\tqps\tbuild-time\tindex-size",
			run: func(r experiments.Runner, cfg experiments.Config) error {
				var methods []string
				if *method != "" {
					methods = strings.Split(*method, ",")
				}
				return r.RunMethods(cfg, methods, os.Stdout)
			},
		}
		fs.BoolFunc("list", "list data sets and their methods, then exit", func(string) error {
			t.header = ""
			t.run = func(r experiments.Runner, cfg experiments.Config) error {
				_, err := fmt.Printf("%s (%s): %s\n", r.Name(), r.Distance(), strings.Join(r.Methods(cfg), ", "))
				return err
			}
			return nil
		})
		return t
	},
	"tune": func(fs *flag.FlagSet, cfg *experiments.Config) *target {
		fs.Var(fs.Lookup("datasets").Value, "dataset", "same as -datasets")
		what := fs.String("what", "vptree", "which tuner: vptree or napp")
		fs.IntVar(&cfg.N, "n", 2000, "tuning subset size")
		fs.IntVar(&cfg.Queries, "queries", 100, "tuning queries")
		fs.IntVar(&cfg.K, "k", 10, "neighbors per query")
		goal := fs.Float64("target", 0.9, "recall target")
		return &target{
			names: []string{"sift"},
			run: func(r experiments.Runner, cfg experiments.Config) error {
				res, err := experiments.Tune(r.Name(), *what, cfg, *goal)
				if err == nil {
					fmt.Printf("dataset=%s method=%s %s (recall %.3f at target %.2f)\n",
						r.Name(), *what, res.Setting, res.Recall, *goal)
				}
				return err
			},
		}
	},
}

func main() {
	if len(os.Args) < 2 || targets[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: repro <table1|table2|figure2|figure3|figure4|methods|tune> [flags]  (repro <target> -h for flags)")
		os.Exit(2)
	}
	name := os.Args[1]
	fs := flag.NewFlagSet("repro "+name, flag.ExitOnError)
	var cfg experiments.Config
	fs.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	datasets := fs.String("datasets", "", "comma-separated subset (default: the target's own, see above)")
	t := targets[name](fs, &cfg)
	fs.Parse(os.Args[2:])

	names := t.names
	if names == nil {
		names = experiments.Names()
	}
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}
	if t.header != "" {
		fmt.Println(t.header)
	}
	for _, ds := range names {
		r, ok := experiments.Get(ds)
		if !ok {
			fmt.Fprintf(os.Stderr, "repro %s: unknown dataset %q (known: %s)\n",
				name, ds, strings.Join(experiments.Names(), ", "))
			os.Exit(2)
		}
		if err := t.run(r, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "repro %s: %s: %v\n", name, ds, err)
			os.Exit(1)
		}
	}
}
