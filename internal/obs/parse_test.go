package obs

import (
	"math"
	"strings"
	"testing"
)

// TestExpositionRoundTrip: whatever WriteText emits, ParseText must accept,
// with values, types, labels, and histogram invariants intact.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("rt_requests_total", "requests served", "index")
	c.With("sift-napp").Add(41)
	c.With(`we"ird\label` + "\n").Inc()
	reg.GaugeFunc("rt_goroutines", "live goroutines", func() float64 { return 12.5 })
	h := reg.Histogram("rt_latency_seconds", "query latency", 1e-9, "index")
	hist := h.With("sift-napp")
	for _, v := range []int64{100, 1000, 1000, 1 << 30} {
		hist.Record(v)
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	page := sb.String()
	tm, err := ParseText(strings.NewReader(page))
	if err != nil {
		t.Fatalf("ParseText rejected our own exposition: %v\n%s", err, page)
	}

	if tm.Types["rt_requests_total"] != "counter" || tm.Types["rt_latency_seconds"] != "histogram" || tm.Types["rt_goroutines"] != "gauge" {
		t.Fatalf("types = %v", tm.Types)
	}
	var found, weird, inf, count, sum bool
	for i := range tm.Samples {
		s := &tm.Samples[i]
		switch {
		case s.Name == "rt_requests_total" && s.Labels["index"] == "sift-napp":
			found = true
			if s.Value != 41 {
				t.Fatalf("counter value = %v", s.Value)
			}
		case s.Name == "rt_requests_total" && s.Labels["index"] == `we"ird\label`+"\n":
			weird = true
			if s.Value != 1 {
				t.Fatalf("escaped-label counter value = %v", s.Value)
			}
		case s.Name == "rt_latency_seconds_bucket" && s.Labels["le"] == "+Inf":
			inf = true
			if s.Value != 4 {
				t.Fatalf("+Inf bucket = %v", s.Value)
			}
		case s.Name == "rt_latency_seconds_count":
			count = true
			if s.Value != 4 {
				t.Fatalf("_count = %v", s.Value)
			}
		case s.Name == "rt_latency_seconds_sum":
			sum = true
			want := float64(100+1000+1000+1<<30) * 1e-9
			if math.Abs(s.Value-want) > 1e-12 {
				t.Fatalf("_sum = %v, want %v", s.Value, want)
			}
		}
	}
	if !found || !weird || !inf || !count || !sum {
		t.Fatalf("missing samples (found=%v weird=%v inf=%v count=%v sum=%v):\n%s", found, weird, inf, count, sum, page)
	}

	// Quantile over the parsed page: the p50 of {100ns,1us,1us,1s+} must
	// land within bucket resolution of 1us (in seconds).
	q50, n, ok := tm.Quantile("rt_latency_seconds", map[string]string{"index": "sift-napp"}, 0.5)
	if !ok || n != 4 {
		t.Fatalf("Quantile ok=%v n=%d", ok, n)
	}
	if q50 < 1000e-9 || q50 > 1100e-9 {
		t.Fatalf("parsed p50 = %v, want ~1e-6", q50)
	}
}

// TestParseTextErrors: the parser is strict — malformed lines are errors,
// not skips.
func TestParseTextErrors(t *testing.T) {
	bad := []string{
		"metric{label=\"v\" 1",             // unterminated label block
		"metric{label=v} 1",                // unquoted value
		"metric 1 2 3",                     // trailing fields
		"metric",                           // no value
		"{label=\"v\"} 1",                  // no name
		"metric{l=\"a\",l=\"b\"} 1",        // duplicate label
		"metric{l=\"\\x\"} 1",              // bad escape
		"# TYPE metric wat",                // unknown type
		"# TYPE metric",                    // malformed TYPE
		"metric notanumber",                // bad value
		"# TYPE m counter\n# TYPE m gauge", // conflicting TYPE
	}
	for _, page := range bad {
		if _, err := ParseText(strings.NewReader(page)); err == nil {
			t.Errorf("ParseText accepted %q", page)
		}
	}
	good := []string{
		"# just a comment\nm_total 1",
		"m{a=\"1\",b=\"2\"} 0.5",
		"m +Inf\nm2 NaN\nm3 -Inf",
		"m{} 1",
		"",
	}
	for _, page := range good {
		if _, err := ParseText(strings.NewReader(page)); err != nil {
			t.Errorf("ParseText rejected %q: %v", page, err)
		}
	}
}
