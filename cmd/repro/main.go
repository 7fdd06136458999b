// Command repro regenerates the paper's tables and figures over the
// synthetic data sets, one target per invocation, as TSV on stdout:
//
//	repro table1  [-n 5000] [-queries 100] [-k 10] [-seed 1] [-datasets sift,dna,...]
//	repro table2  [-n 5000] [-k 10] [-seed 1] [-datasets ...]
//	repro figure2 [-n 2000] [-dim 64] [-pairs 250] [-seed 1] [-datasets ...]
//	repro figure3 [-n 2000] [-queries 100] [-k 10] [-dims 16,64,256,1024] [-seed 1] [-datasets ...]
//	repro figure4 [-n 5000] [-queries 100] [-folds 1] [-k 10] [-workers 1] [-seed 1] [-datasets ...]
//	              [-save-index DIR] [-load-index DIR]
//
// table1 is the data set summary (distance, record count, single-thread
// brute-force 10-NN query time, in-memory size, dimensionality); table2 is
// index size and creation time per method; figure2 samples original-space
// vs projected-space distances for random and permutation projections from
// two strata (random pairs and 100-NN pairs); figure3 is the fraction of
// candidates scanned in projected-space order to reach a given recall;
// figure4 is the paper's main result, improvement in efficiency
// (brute-force time / method time) vs 10-NN recall per method. Each target
// prints its column names as a "# ..." header line. figure4's -save-index /
// -load-index persist built indexes (internal/codec format) so repeated
// runs over the same seed/n/folds skip construction.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// target is one table or figure: its header line, its default data sets
// (nil: all nine), and the runner method that prints its rows.
type target struct {
	header string
	names  []string
	run    func(r experiments.Runner, cfg experiments.Config) error
}

// targets maps a subcommand to a function that registers the target's own
// flags on fs (filling cfg when parsed) and returns the target.
var targets = map[string]func(fs *flag.FlagSet, cfg *experiments.Config) target{
	"table1": func(fs *flag.FlagSet, cfg *experiments.Config) target {
		fs.IntVar(&cfg.N, "n", 5000, "points per data set")
		fs.IntVar(&cfg.Queries, "queries", 100, "query count")
		fs.IntVar(&cfg.K, "k", 10, "neighbors per query")
		return target{
			header: "# Table 1: dataset\tdistance\trecords\tbrute-force-10NN\tin-memory\tdims",
			run:    func(r experiments.Runner, cfg experiments.Config) error { return r.Table1(cfg, os.Stdout) },
		}
	},
	"table2": func(fs *flag.FlagSet, cfg *experiments.Config) target {
		fs.IntVar(&cfg.N, "n", 5000, "points per data set")
		fs.IntVar(&cfg.K, "k", 10, "neighbors per query (affects method defaults)")
		return target{
			header: "# Table 2: dataset\tmethod\tindex-size\tcreation-time",
			run:    func(r experiments.Runner, cfg experiments.Config) error { return r.Table2(cfg, os.Stdout) },
		}
	},
	"figure2": func(fs *flag.FlagSet, cfg *experiments.Config) target {
		fs.IntVar(&cfg.N, "n", 2000, "points per data set (the paper samples from 1M)")
		dim := fs.Int("dim", 64, "projection dimensionality (paper: 64)")
		pairs := fs.Int("pairs", 250, "sample pairs per stratum")
		return target{
			header: "# Figure 2: dataset\tkind\tstratum\toriginal\tprojected",
			// The paper's eight panels: rand-proj for SIFT and Wiki-sparse,
			// perm for the rest (the runners emit both kinds where applicable).
			names: []string{"sift", "wiki-sparse", "wiki-8-kl", "dna", "wiki-128-kl", "wiki-128-js"},
			run: func(r experiments.Runner, cfg experiments.Config) error {
				return r.Figure2(cfg, *dim, *pairs, os.Stdout)
			},
		}
	},
	"figure3": func(fs *flag.FlagSet, cfg *experiments.Config) target {
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
		return target{
			header: "# Figure 3: dataset\tkind\tdim\trecall\tfraction",
			// The paper's nine panels.
			names: []string{"sift", "wiki-sparse", "wiki-8-kl", "wiki-128-kl", "dna", "imagenet", "wiki-128-js"},
			run: func(r experiments.Runner, cfg experiments.Config) error {
				return r.Figure3(cfg, dims, os.Stdout)
			},
		}
	},
	"figure4": func(fs *flag.FlagSet, cfg *experiments.Config) target {
		fs.IntVar(&cfg.N, "n", 5000, "points per data set (the paper uses 1-5M)")
		fs.IntVar(&cfg.Queries, "queries", 100, "query count per split")
		fs.IntVar(&cfg.Folds, "folds", 1, "random splits (paper: 5)")
		fs.IntVar(&cfg.K, "k", 10, "neighbors per query")
		fs.IntVar(&cfg.Workers, "workers", 1, "goroutines running evaluation queries (1 = single-thread protocol, -1 = GOMAXPROCS)")
		fs.StringVar(&cfg.SaveIndexDir, "save-index", "", "directory to persist every built index into (internal/codec format)")
		fs.StringVar(&cfg.LoadIndexDir, "load-index", "", "directory to warm-start indexes from, skipping construction when a matching file exists (same seed/n/folds required)")
		return target{
			header: "# Figure 4: dataset\tmethod\tparams\trecall\timprovement\tquery-time\tqps\tbuild-time\tindex-size",
			run:    func(r experiments.Runner, cfg experiments.Config) error { return r.Figure4(cfg, os.Stdout) },
		}
	},
}

func main() {
	if len(os.Args) < 2 || targets[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: repro <table1|table2|figure2|figure3|figure4> [flags]  (repro <target> -h for flags)")
		os.Exit(2)
	}
	name := os.Args[1]
	fs := flag.NewFlagSet("repro "+name, flag.ExitOnError)
	var cfg experiments.Config
	fs.Int64Var(&cfg.Seed, "seed", 1, "random seed")
	datasets := fs.String("datasets", "", "comma-separated subset (default: the paper's panels for the target)")
	t := targets[name](fs, &cfg)
	fs.Parse(os.Args[2:])

	names := t.names
	if names == nil {
		names = experiments.Names()
	}
	if *datasets != "" {
		names = strings.Split(*datasets, ",")
	}
	fmt.Println(t.header)
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
