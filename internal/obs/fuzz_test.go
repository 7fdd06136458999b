package obs

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseText: ParseText reads pages this process did not write (permctl
// scrapes live daemons, metricscheck reads a smoke run's pages). Any bytes
// must be refused or parsed without a panic, and Quantile over every
// histogram family of an accepted page must not panic either.
func FuzzParseText(f *testing.F) {
	reg := NewRegistry()
	reg.Counter("fz_requests_total", "requests", "index").With("a").Add(3)
	hist := reg.Histogram("fz_latency_seconds", "latency", 1e-9, "index").With("a")
	for _, v := range []int64{100, 1000, 1 << 30} {
		hist.Record(v)
	}
	var page bytes.Buffer
	if err := reg.WriteText(&page); err != nil {
		f.Fatal(err)
	}
	f.Add(page.Bytes())
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\n"))
	f.Add([]byte("h_bucket{le=\"NaN\"} 1\nh_bucket{le=\"+Inf\"} NaN\n"))
	f.Add([]byte("x{a=\"\\\"\"} -Inf\n"))
	f.Fuzz(func(t *testing.T, page []byte) {
		tm, err := ParseText(bytes.NewReader(page))
		if err != nil {
			return
		}
		for _, s := range tm.Samples {
			fam, ok := strings.CutSuffix(s.Name, "_bucket")
			if !ok {
				continue
			}
			for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
				tm.Quantile(fam, nil, q)
				tm.Quantile(fam, s.Labels, q)
			}
		}
	})
}
