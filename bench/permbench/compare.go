package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	if path == "" {
		mod, err := findModule()
		if err != nil {
			return nil, err
		}
		path = filepath.Join(mod, "..", "BENCHMARK.json")
	}
	var b benchmarkFile
	if err := readJSON(path, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}

// verdict judges one end-to-end metric on one workload. worse is how much
// worse b is than a, as a share of a, in the metric's own direction. A pair
// whose reps spread wider than the bound on either side cannot resolve a
// change of the bound's size.
func verdict(a, b spreadValue, better string, bound float64) (worse float64, v string) {
	if a.Value != 0 {
		worse = (b.Value - a.Value) / a.Value
	}
	if better == "higher" {
		worse = -worse
	}
	switch {
	case a.Spread > bound || b.Spread > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareReports prints, for every end-to-end metric on every workload, how
// report B stands against report A and the bound from BENCHMARK.json. The
// return value is the exit code: 1 on any regression or any rise in the
// share of failed operations.
func compareReports(out io.Writer, benchmarkPath, pathA, pathB string) int {
	bench, err := readBenchmarkFile(benchmarkPath)
	var a, b report
	if err == nil {
		err = readJSON(pathA, &a)
	}
	if err == nil {
		err = readJSON(pathB, &b)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "permbench: %v\n", err)
		return 2
	}
	if a.Machine != b.Machine {
		fmt.Fprintf(out, "warning: the reports come from different machines\n  A: %+v\n  B: %+v\n", a.Machine, b.Machine)
	}
	code := 0
	fmt.Fprintf(out, "%-12s %-14s %12s %12s %8s %7s %7s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "sprd A", "sprd B", "verdict")
	for _, w := range bench.Workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(out, "%-12s missing from a report\n", w.Name)
			code = 1
			continue
		}
		for _, m := range bench.EndToEnd {
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			worse, v := verdict(va, vb, m.Better, m.Bound)
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(out, "%-12s %-14s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, 100*va.Spread, 100*vb.Spread, v)
		}
		fa, fb := failShare(wa), failShare(wb)
		v := "ok"
		if fb > fa {
			v, code = "regressed", 1
		}
		fmt.Fprintf(out, "%-12s %-14s %12.6f %12.6f %43s\n", w.Name, "fail_share", fa, fb, v)
	}
	return code
}

func failShare(w *workloadReport) float64 {
	if w.Attempted == 0 {
		return 1
	}
	return float64(w.Failed) / float64(w.Attempted)
}
