package wire

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/dataset"
)

// BenchmarkDecodeSearch reads permbench's request shapes through
// DecodeSearch: one SIFT query (sift-fleet), a 64-query SIFT batch with
// per-request params (sift-batch) and one 32-byte DNA read (dna-direct).
// The object decode that follows is BenchmarkDecode in internal/dataset.
func BenchmarkDecodeSearch(b *testing.B) {
	sift, err := dataset.Lookup("sift")
	if err != nil {
		b.Fatal(err)
	}
	dna, err := dataset.Lookup("dna")
	if err != nil {
		b.Fatal(err)
	}
	siftQueries, err := sift.Queries(7, 64)
	if err != nil {
		b.Fatal(err)
	}
	dnaQueries, err := dna.Queries(7, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		req  SearchRequest
	}{
		{"sift/1", SearchRequest{Query: siftQueries[0], K: 10}},
		{"sift/64", SearchRequest{Queries: siftQueries, K: 10, Params: map[string]float64{"t": 22}}},
		{"dna/1", SearchRequest{Query: dnaQueries[0], K: 10}},
	} {
		body, err := json.Marshal(bc.req)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				r := &http.Request{Method: "POST", Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
				if _, _, err := DecodeSearch(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
