// Command permbench is the repository's benchmark: it builds the real
// permserve, permrouter and shardsplit binaries, boots them on free ports,
// drives them over HTTP, checks every answer against exact truth computed
// in-process, and reports client-observed end-to-end metrics and a per-layer
// budget. See ../README.md for every metric and workload.
//
// Usage (from the repository root):
//
//	go run -C bench ./permbench --workload sift-fleet --seed 1 --seconds 10 --trace 0
//	go run -C bench ./permbench --workload sift-fleet --seed 1 --seconds 10 --trace 1
//	go run -C bench ./permbench -seed 1 > run1.json         # every workload, both passes
//	go run -C bench ./permbench -compare run1.json run2.json
//
// With --workload, the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// for --trace 0, the per-layer metrics for --trace 1. Without it, every
// workload runs both passes and one report object is printed. The exit code
// is non-zero when any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() { os.Exit(realMain()) }

func realMain() int {
	name := flag.String("workload", "", "run one workload and print the one-line result (default: all workloads, both passes, one report)")
	seed := flag.Int64("seed", 1, "draws the queries, their order, the ingest objects and the delete targets")
	seconds := flag.Float64("seconds", 10, "length of the measured pass")
	trace := flag.Int("trace", 0, "with -workload: 0 = timed pass, end-to-end metrics; 1 = traced pass, per-layer metrics")
	compare := flag.Bool("compare", false, "compare two reports: permbench -compare A.json B.json")
	benchmark := flag.String("benchmark", "", "path of BENCHMARK.json for -compare (default: next to the bench module)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: permbench -compare A.json B.json")
			return 2
		}
		return compareReports(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "permbench: -seconds must be at least 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	length := time.Duration(*seconds * float64(time.Second))

	e, err := newEnv()
	if err != nil {
		fmt.Fprintf(os.Stderr, "permbench: %v\n", err)
		return 1
	}
	defer e.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()

	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "permbench: %v\n", err)
			return 2
		}
		cfg := config{seed: *seed, length: length, trace: *trace == 1, setups: setups}
		if cfg.trace {
			cfg.setups = 1
		}
		out, err := runWorkload(e, w, cfg)
		if err != nil {
			return fatal(e, err)
		}
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
			printBudget(os.Stderr, w, out.metrics)
		}
		printProblems(w, out)
		line, _ := json.Marshal(map[string]any{
			"correct": out.correct, "attempted": out.attempted, "failed": out.failed,
			"metrics": named(defs, out.metrics),
		})
		fmt.Printf("%s\n", line)
		if !out.correct {
			e.dumpLogs(os.Stderr)
			return 1
		}
		return 0
	}

	rep := report{Schema: "permbench/v1", Seed: *seed, Seconds: *seconds, Machine: readMachine(), Workloads: map[string]*workloadReport{}}
	ok := true
	for _, w := range workloads {
		timed, err := runWorkload(e, w, config{seed: *seed, length: length, setups: setups})
		if err != nil {
			return fatal(e, err)
		}
		traced, err := runWorkload(e, w, config{seed: *seed, length: length, trace: true, setups: 1})
		if err != nil {
			return fatal(e, err)
		}
		printProblems(w, timed)
		printProblems(w, traced)
		rep.Workloads[w.name] = newWorkloadReport(w, timed, traced)
		printEndToEnd(w, timed)
		printBudget(os.Stderr, w, traced.metrics)
		ok = ok && timed.correct && traced.correct
	}
	blob, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Printf("%s\n", blob)
	if !ok {
		e.dumpLogs(os.Stderr)
		return 1
	}
	return 0
}

func fatal(e *env, err error) int {
	fmt.Fprintf(os.Stderr, "permbench: %v\n", err)
	e.dumpLogs(os.Stderr)
	return 1
}

func printProblems(w workload, out *outcome) {
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "permbench: %s: CHECK FAILED: %s\n", w.name, p)
	}
}

func printEndToEnd(w workload, out *outcome) {
	fmt.Fprintf(os.Stderr, "\n%s: end to end, median of %d reps (spread = narrowest majority of the reps / median)\n", w.name, reps)
	for _, d := range endToEnd {
		fmt.Fprintf(os.Stderr, "  %-14s %12.4f %-6s spread %5.1f%%\n", d.name, out.metrics[d.name], d.unit, 100*out.spread[d.name])
	}
}

// report is the output of a full run and the input of -compare.
type report struct {
	Schema    string                     `json:"schema"`
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Machine   machine                    `json:"machine"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Why       string                 `json:"why"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	EndToEnd  map[string]spreadValue `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// spreadValue is an end-to-end median with the relative spread of its reps.
type spreadValue struct {
	metricValue
	Spread float64 `json:"spread"`
}

func newWorkloadReport(w workload, timed, traced *outcome) *workloadReport {
	wr := &workloadReport{
		Why:       w.why,
		Correct:   timed.correct && traced.correct,
		Attempted: timed.attempted + traced.attempted,
		Failed:    timed.failed + traced.failed,
		Problems:  append(append([]string{}, timed.problems...), traced.problems...),
		EndToEnd:  map[string]spreadValue{},
		PerLayer:  named(perLayer, traced.metrics),
	}
	for name, v := range named(endToEnd, timed.metrics) {
		wr.EndToEnd[name] = spreadValue{metricValue: v, Spread: timed.spread[name]}
	}
	return wr
}
