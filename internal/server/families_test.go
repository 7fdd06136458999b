package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rollout"
	"repro/internal/seqscan"
	"repro/internal/shard"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/wire"
)

// TestServeEveryFamily serves every data set of the table (plus an off-table
// wiki-<topics>) under every distance it admits and posts it the rollout
// gate's golden probes: what comes back over HTTP is what a scan over the
// same corpus answers in process, and an object of the wrong shape is a 400
// — never a 200 over a meaningless distance.
func TestServeEveryFamily(t *testing.T) {
	// One wrong-shaped object per object type, and the hostile sparse
	// vectors that used to be answered with every distance 1 in id order.
	const (
		notDense     = `"ACGT"`
		notString    = `[1, 2]`
		notHistogram = `[0.5, 0.5]`
		notSignature = `{"weights": [1], "centroids": [0, 0, 0], "dim": 3}`
		negativeTerm = `{"idx": [-4], "val": [0.5]}`
		noTerms      = `{}`
	)
	for _, name := range append(dataset.Names(), "wiki-3") {
		t.Run(name, func(t *testing.T) {
			fam, err := dataset.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			switch f := fam.(type) {
			case *dataset.Family[[]float32]:
				serveFamily(t, f, notDense)
			case *dataset.Family[[]byte]:
				serveFamily(t, f, notString)
			case *dataset.Family[space.SparseVector]:
				serveFamily(t, f, negativeTerm, noTerms)
			case *dataset.Family[space.Histogram]:
				serveFamily(t, f, notHistogram)
			case *dataset.Family[space.Signature]:
				serveFamily(t, f, notSignature)
			default:
				t.Fatalf("%s: unexpected family type %T", name, fam)
			}
		})
	}
}

func serveFamily[T any](t *testing.T, f *dataset.Family[T], bad ...string) {
	const n, k = 200, 5
	dir := t.TempDir()
	db := f.Gen(e2eSeed, n)
	for _, sp := range f.Spaces() {
		writeFixture(t, dir, sp.Name(), seqscan.New(sp, db), shard.Sidecar{Dataset: f.Name(), Seed: e2eSeed, N: n})
	}
	writeFixture(t, dir, "mutable", seqscan.New(f.Spaces()[0], db), shard.Sidecar{Dataset: f.Name(), Seed: e2eSeed, N: n, Mutable: true})
	reg, ts := bootMutable(t, dir)
	defer reg.Close()
	defer ts.Close()

	probes, err := rollout.GoldenQueries(f.Name(), e2eSeed, 6)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]T, len(probes))
	for i, p := range probes {
		if queries[i], err = f.Decode(p, db[0]); err != nil {
			t.Fatalf("golden probe %d does not decode: %v", i, err)
		}
	}
	for _, sp := range f.Spaces() {
		url := ts.URL + "/v1/indexes/" + sp.Name() + "/search"
		scan := seqscan.New(sp, db)
		want := make([][]topk.Neighbor, len(queries))
		for i, q := range queries {
			want[i] = wireNeighbors(scan.Search(q, k))

			status, raw := postJSON(t, url, wire.SearchRequest{Query: probes[i], K: k})
			var got wire.SearchResponse
			if err := json.Unmarshal(raw, &got); err != nil || status != http.StatusOK {
				t.Fatalf("%s probe %d: status %d, body %s (%v)", sp.Name(), i, status, raw, err)
			}
			if !reflect.DeepEqual(got.Results, want[i]) {
				t.Errorf("%s probe %d: served %v, in-process scan %v", sp.Name(), i, got.Results, want[i])
			}
		}
		status, raw := postJSON(t, url, wire.SearchRequest{Queries: probes, K: k})
		var got wire.SearchResponse
		if err := json.Unmarshal(raw, &got); err != nil || status != http.StatusOK {
			t.Fatalf("%s batch: status %d, body %s (%v)", sp.Name(), status, raw, err)
		}
		if !reflect.DeepEqual(got.Batch, want) {
			t.Errorf("%s batch: served %v, in-process scan %v", sp.Name(), got.Batch, want)
		}

		for _, obj := range bad {
			if status, raw := postJSON(t, url, wire.SearchRequest{Query: json.RawMessage(obj), K: k}); status != http.StatusBadRequest {
				t.Errorf("%s: query %s answered %d %s, want 400", sp.Name(), obj, status, raw)
			}
			batch := []json.RawMessage{probes[0], json.RawMessage(obj)}
			if status, raw := postJSON(t, url, wire.SearchRequest{Queries: batch, K: k}); status != http.StatusBadRequest {
				t.Errorf("%s: batch holding %s answered %d %s, want 400", sp.Name(), obj, status, raw)
			}
		}
	}

	// Added objects pass through the same Decode before they reach the WAL:
	// a probe becomes its own nearest neighbor under the next free id, a
	// wrong-shaped object is refused.
	mut := ts.URL + "/v1/indexes/mutable/"
	for _, obj := range bad {
		if status, raw := postJSON(t, mut+"add", map[string]json.RawMessage{"object": json.RawMessage(obj)}); status != http.StatusBadRequest {
			t.Errorf("add %s answered %d %s, want 400", obj, status, raw)
		}
	}
	if status, raw := postJSON(t, mut+"add", map[string]json.RawMessage{"object": probes[0]}); status != http.StatusOK {
		t.Fatalf("add of a golden probe: status %d, body %s", status, raw)
	}
	status, raw := postJSON(t, mut+"search", wire.SearchRequest{Query: probes[0], K: 1})
	var got wire.SearchResponse
	if err := json.Unmarshal(raw, &got); err != nil || status != http.StatusOK {
		t.Fatalf("search after add: status %d, body %s (%v)", status, raw, err)
	}
	if len(got.Results) != 1 || got.Results[0].ID != n {
		t.Errorf("search for the added probe answered %v, want id %d", got.Results, n)
	}
}
