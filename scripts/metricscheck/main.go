// Command metricscheck validates a Prometheus text exposition page — the
// output of permserve's and permrouter's GET /metrics — beyond what a lax
// scraper would tolerate: strict line grammar (via the internal/obs
// parser), every sample covered by a TYPE declaration, no duplicate
// samples, non-negative counters, info families (named *_info: a fact
// carried by labels, such as permserve_kernel_info's arm) as gauges of 1,
// and the histogram invariants (+Inf
// bucket present, cumulative bucket counts non-decreasing in le, _count
// equal to the +Inf bucket, _sum present). The smoke scripts pipe a live
// scrape through it, so a malformed or internally inconsistent exposition
// fails CI before a real monitoring stack meets it.
//
// -require names comma-separated metric families that must be present with
// at least one sample — how the smoke scripts assert that, say, the
// router's replica ejection counters actually exist after a kill-one-replica
// drill.
//
// Usage:
//
//	curl -s localhost:8080/metrics | go run ./scripts/metricscheck \
//	    -require permserve_search_requests_total,permserve_search_latency_seconds
//	go run ./scripts/metricscheck page.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"repro/internal/obs"
)

func main() {
	require := flag.String("require", "", "comma-separated metric families that must be present with at least one sample")
	flag.Parse()

	var in io.Reader = os.Stdin
	src := "<stdin>"
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: metricscheck [-require fam1,fam2] [page.txt]")
		os.Exit(2)
	}
	if flag.NArg() == 1 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "metricscheck: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		in, src = f, flag.Arg(0)
	}

	tm, err := obs.ParseText(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "metricscheck: %s: %v\n", src, err)
		os.Exit(1)
	}
	problems := check(tm, strings.Split(*require, ","))
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "metricscheck: %s: %s\n", src, p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
	fmt.Printf("metricscheck: %s ok (%d samples, %d families)\n", src, len(tm.Samples), len(tm.Types))
}

// family strips a histogram sample suffix back to its declared family name.
func family(tm *obs.TextMetrics, name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && tm.Types[base] == "histogram" {
			return base
		}
	}
	return name
}

// childKey identifies one labeled child of a family (the "le" label
// excluded, so a histogram's buckets collapse onto one child).
func childKey(labels map[string]string) string {
	pairs := make([]string, 0, len(labels))
	for k, v := range labels {
		if k == "le" {
			continue
		}
		pairs = append(pairs, k+"="+v)
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// check runs every validation over a parsed page and returns the findings.
func check(tm *obs.TextMetrics, required []string) []string {
	var problems []string

	// Every sample must belong to a TYPE-declared family, and no sample
	// (same name, same full label set) may appear twice.
	seen := map[string]bool{}
	type histChild struct {
		buckets map[float64]float64
		sum     *float64
		count   *float64
		display string
	}
	hists := map[string]map[string]*histChild{} // family -> childKey -> state
	for i := range tm.Samples {
		s := &tm.Samples[i]
		fam := family(tm, s.Name)
		typ, declared := tm.Types[fam]
		if !declared {
			problems = append(problems, fmt.Sprintf("sample %s has no TYPE declaration", s.Name))
			continue
		}
		full := s.Name + "{" + childKey(s.Labels) + ",le=" + s.Labels["le"] + "}"
		if seen[full] {
			problems = append(problems, fmt.Sprintf("duplicate sample %s", full))
		}
		seen[full] = true
		if typ == "counter" && s.Value < 0 {
			problems = append(problems, fmt.Sprintf("counter %s is negative: %v", full, s.Value))
		}
		if strings.HasSuffix(fam, "_info") && (typ != "gauge" || s.Value != 1) {
			problems = append(problems, fmt.Sprintf("info family %s: %s %s = %v, want a gauge of 1", fam, typ, full, s.Value))
		}
		if typ != "histogram" {
			continue
		}
		if hists[fam] == nil {
			hists[fam] = map[string]*histChild{}
		}
		key := childKey(s.Labels)
		hc := hists[fam][key]
		if hc == nil {
			hc = &histChild{buckets: map[float64]float64{}, display: fam + "{" + key + "}"}
			hists[fam][key] = hc
		}
		v := s.Value
		switch {
		case s.Name == fam+"_bucket":
			le, err := parseLE(s.Labels["le"])
			if err != nil {
				problems = append(problems, fmt.Sprintf("%s: bad le %q", hc.display, s.Labels["le"]))
				continue
			}
			hc.buckets[le] = v
		case s.Name == fam+"_sum":
			hc.sum = &v
		case s.Name == fam+"_count":
			hc.count = &v
		default:
			problems = append(problems, fmt.Sprintf("histogram family %s has plain sample %s", fam, s.Name))
		}
	}

	// Histogram invariants per child.
	for _, children := range sortedKeys(hists) {
		for _, key := range sortedKeys(hists[children]) {
			hc := hists[children][key]
			inf, haveInf := hc.buckets[math.Inf(1)]
			if !haveInf {
				problems = append(problems, fmt.Sprintf("%s: no +Inf bucket", hc.display))
				continue
			}
			les := make([]float64, 0, len(hc.buckets))
			for le := range hc.buckets {
				les = append(les, le)
			}
			sort.Float64s(les)
			prev := 0.0
			for _, le := range les {
				if hc.buckets[le] < prev {
					problems = append(problems, fmt.Sprintf("%s: bucket counts decrease at le=%v (%v < %v) — not cumulative",
						hc.display, le, hc.buckets[le], prev))
					break
				}
				prev = hc.buckets[le]
			}
			switch {
			case hc.count == nil:
				problems = append(problems, fmt.Sprintf("%s: missing _count", hc.display))
			case *hc.count != inf:
				problems = append(problems, fmt.Sprintf("%s: _count %v != +Inf bucket %v", hc.display, *hc.count, inf))
			}
			if hc.sum == nil {
				problems = append(problems, fmt.Sprintf("%s: missing _sum", hc.display))
			}
		}
	}

	// Required families: declared and populated.
	for _, fam := range required {
		if fam = strings.TrimSpace(fam); fam == "" {
			continue
		}
		if _, ok := tm.Types[fam]; !ok {
			problems = append(problems, fmt.Sprintf("required family %s is not declared", fam))
			continue
		}
		found := false
		for i := range tm.Samples {
			if family(tm, tm.Samples[i].Name) == fam {
				found = true
				break
			}
		}
		if !found {
			problems = append(problems, fmt.Sprintf("required family %s has no samples", fam))
		}
	}
	return problems
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	var v float64
	_, err := fmt.Sscanf(s, "%g", &v)
	return v, err
}

// sortedKeys returns m's keys sorted, for deterministic findings order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
