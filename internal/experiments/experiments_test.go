package experiments

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// small is a fast configuration for harness tests.
var small = Config{N: 600, Queries: 20, Folds: 1, K: 5, Seed: 42}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"sift", "cophir", "imagenet", "wiki-sparse",
		"wiki-8-kl", "wiki-8-js", "wiki-128-kl", "wiki-128-js", "dna",
	}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("registry has %d combos: %v", len(names), names)
	}
	for _, n := range want {
		if _, ok := Get(n); !ok {
			t.Fatalf("combo %q missing", n)
		}
	}
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown name resolved")
	}
}

func TestTable1RowShape(t *testing.T) {
	r, _ := Get("wiki-8-kl")
	var buf bytes.Buffer
	if err := r.Table1(small, &buf); err != nil {
		t.Fatal(err)
	}
	fields := strings.Split(strings.TrimSpace(buf.String()), "\t")
	if len(fields) != 6 {
		t.Fatalf("table 1 row has %d fields: %q", len(fields), buf.String())
	}
	if fields[0] != "wiki-8-kl" || fields[1] != "kldiv" || fields[2] != "600" || fields[5] != "8" {
		t.Fatalf("row = %q", buf.String())
	}
}

func TestTable2Rows(t *testing.T) {
	r, _ := Get("wiki-8-kl")
	var buf bytes.Buffer
	if err := r.Table2(small, &buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	methods := map[string]bool{}
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 4 {
			t.Fatalf("table 2 row has %d fields: %q", len(fields), sc.Text())
		}
		methods[fields[1]] = true
	}
	for _, m := range []string{"vptree", "sw-graph", "napp", "brute-force-filt"} {
		if !methods[m] {
			t.Fatalf("method %s missing from table 2 (got %v)", m, methods)
		}
	}
}

func TestFigure2Output(t *testing.T) {
	r, _ := Get("sift")
	var buf bytes.Buffer
	cfg := small
	cfg.N = 300
	if err := r.Figure2(cfg, 32, 40, &buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	kinds := map[string]int{}
	strata := map[string]int{}
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 5 {
			t.Fatalf("figure 2 row has %d fields: %q", len(fields), sc.Text())
		}
		kinds[fields[1]]++
		strata[fields[2]]++
		orig, err := strconv.ParseFloat(fields[3], 64)
		if err != nil || orig < 0 {
			t.Fatalf("bad original distance %q", fields[3])
		}
		proj, err := strconv.ParseFloat(fields[4], 64)
		if err != nil || proj < 0 {
			t.Fatalf("bad projected distance %q", fields[4])
		}
	}
	if kinds["perm"] == 0 || kinds["rand"] == 0 {
		t.Fatalf("sift must emit both perm and rand pairs: %v", kinds)
	}
	if strata["random"] == 0 || strata["nn"] == 0 {
		t.Fatalf("both strata required: %v", strata)
	}
}

func TestFigure2NoRandForGenericSpace(t *testing.T) {
	r, _ := Get("dna")
	var buf bytes.Buffer
	cfg := small
	cfg.N = 300
	if err := r.Figure2(cfg, 32, 30, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\trand\t") {
		t.Fatal("dna has no random-projection panel in the paper")
	}
	if !strings.Contains(buf.String(), "\tperm\t") {
		t.Fatal("perm pairs missing")
	}
}

func TestFigure3CurvesMonotone(t *testing.T) {
	r, _ := Get("wiki-8-kl")
	var buf bytes.Buffer
	if err := r.Figure3(small, []int{8, 64}, &buf); err != nil {
		t.Fatal(err)
	}
	// Parse rows: name kind dim recall fraction. Within one (kind, dim)
	// the fraction must not decrease as recall grows.
	type key struct {
		kind string
		dim  string
	}
	last := map[key]float64{}
	lastRecall := map[key]float64{}
	rows := 0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		rows++
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 5 {
			t.Fatalf("figure 3 row has %d fields: %q", len(fields), sc.Text())
		}
		k := key{fields[1], fields[2]}
		recall, _ := strconv.ParseFloat(fields[3], 64)
		frac, _ := strconv.ParseFloat(fields[4], 64)
		if frac <= 0 || frac > 1 {
			t.Fatalf("fraction %v out of (0,1]", frac)
		}
		if prev, ok := last[k]; ok {
			if recall <= lastRecall[k] {
				t.Fatalf("recall not increasing within %v", k)
			}
			if frac+1e-12 < prev {
				t.Fatalf("fraction decreased within %v: %v -> %v", k, prev, frac)
			}
		}
		last[k] = frac
		lastRecall[k] = recall
	}
	if rows != 2*small.K {
		t.Fatalf("expected %d rows, got %d", 2*small.K, rows)
	}
}

func TestFigure3HigherDimSteeper(t *testing.T) {
	// With more pivots the projection is better: the fraction needed for
	// full recall must not be (much) larger.
	r, _ := Get("sift")
	var buf bytes.Buffer
	cfg := small
	cfg.N = 500
	if err := r.Figure3(cfg, []int{4, 128}, &buf); err != nil {
		t.Fatal(err)
	}
	frac := map[string]float64{} // kind/dim -> fraction at full recall
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		recall, _ := strconv.ParseFloat(fields[3], 64)
		if recall == 1 {
			f, _ := strconv.ParseFloat(fields[4], 64)
			frac[fields[1]+"/"+fields[2]] = f
		}
	}
	if frac["perm/128"] > frac["perm/4"] {
		t.Fatalf("perm dim 128 needs larger fraction (%v) than dim 4 (%v)",
			frac["perm/128"], frac["perm/4"])
	}
}

func TestFigure4Rows(t *testing.T) {
	r, _ := Get("wiki-8-kl")
	var buf bytes.Buffer
	if err := r.RunMethods(small, nil, &buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	methods := map[string]int{}
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 9 {
			t.Fatalf("figure 4 row has %d fields: %q", len(fields), sc.Text())
		}
		recall, err := strconv.ParseFloat(fields[3], 64)
		if err != nil || recall < 0 || recall > 1 {
			t.Fatalf("bad recall %q", fields[3])
		}
		imp, err := strconv.ParseFloat(fields[4], 64)
		if err != nil || imp < 0 {
			t.Fatalf("bad improvement %q", fields[4])
		}
		methods[fields[1]]++
	}
	for _, m := range []string{"vptree", "sw-graph", "napp", "brute-force-filt"} {
		if methods[m] == 0 {
			t.Fatalf("method %s missing from figure 4 output: %v", m, methods)
		}
		if methods[m] < 2 {
			t.Fatalf("method %s has fewer than 2 sweep points", m)
		}
	}
}

func TestFigure4IncludesMPLSHOnlyForL2(t *testing.T) {
	var buf bytes.Buffer
	cfg := small
	cfg.N = 400
	r, _ := Get("sift")
	if err := r.RunMethods(cfg, nil, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mplsh") {
		t.Fatal("sift figure 4 must include mplsh")
	}
	buf.Reset()
	r2, _ := Get("dna")
	if err := r2.RunMethods(cfg, nil, &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "mplsh") {
		t.Fatal("dna figure 4 must not include mplsh")
	}
	if !strings.Contains(buf.String(), "brute-force-filt-bin") {
		t.Fatal("dna figure 4 must include the binarized filter")
	}
}

func TestTuneVPTree(t *testing.T) {
	res, err := Tune("wiki-8-kl", "vptree", Config{N: 800, Queries: 40, K: 5, Seed: 2}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recall < 0.9 {
		t.Fatalf("tuned recall %.3f below target", res.Recall)
	}
	if !strings.HasPrefix(res.Setting, "alpha=") {
		t.Fatalf("setting = %q", res.Setting)
	}
}

func TestTuneNAPP(t *testing.T) {
	res, err := Tune("sift", "napp", Config{N: 800, Queries: 40, K: 5, Seed: 2}, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Setting, "t=") {
		t.Fatalf("setting = %q", res.Setting)
	}
	if res.Recall <= 0 {
		t.Fatalf("recall = %v", res.Recall)
	}
}

func TestTuneValidation(t *testing.T) {
	if _, err := Tune("nope", "vptree", small, 0.9); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := Tune("sift", "nope", small, 0.9); err == nil {
		t.Fatal("unknown tuner accepted")
	}
	if _, err := Tune("sift", "vptree", small, 2); err == nil {
		t.Fatal("bad target accepted")
	}
}

// TestRunMethodsWorkersParity verifies the -workers query path changes only
// timing columns: the deterministic columns (dataset, method, params,
// recall) must be identical to the single-thread protocol. Each call builds
// its own indexes, the graphs on every core, so the graph rows also pin that
// a build is reproducible.
func TestRunMethodsWorkersParity(t *testing.T) {
	r, _ := Get("dna")
	methods := []string{"napp", "sw-graph", "nndescent-graph"}
	var serial, batch bytes.Buffer
	cfg := small
	cfg.Workers = 1
	if err := r.RunMethods(cfg, methods, &serial); err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	if err := r.RunMethods(cfg, methods, &batch); err != nil {
		t.Fatal(err)
	}
	for _, m := range methods {
		if !strings.Contains(serial.String(), "\t"+m+"\t") {
			t.Fatalf("no %s rows in\n%s", m, serial.String())
		}
	}
	sLines := strings.Split(strings.TrimSpace(serial.String()), "\n")
	bLines := strings.Split(strings.TrimSpace(batch.String()), "\n")
	if len(sLines) != len(bLines) || len(sLines) == 0 {
		t.Fatalf("row count mismatch: %d vs %d", len(sLines), len(bLines))
	}
	for i := range sLines {
		sf := strings.Split(sLines[i], "\t")
		bf := strings.Split(bLines[i], "\t")
		for _, col := range []int{0, 1, 2, 3} {
			if sf[col] != bf[col] {
				t.Fatalf("row %d column %d differs across worker counts: %q vs %q",
					i, col, sLines[i], bLines[i])
			}
		}
	}
}
