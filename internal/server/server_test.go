package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vptree"
	"repro/internal/wire"
)

// The end-to-end suite: build small indexes over an L2 corpus and a
// Levenshtein corpus, save them, boot the server from the files, and assert
// that what comes back over HTTP is identical to calling Search on the
// original in-memory index.

const (
	e2eSeed   = 7
	e2eDenseN = 300
	e2eDNAN   = 200
)

// e2eFixture is one served index plus the original it was saved from.
type e2eFixture[T any] struct {
	idx     index.Index[T]
	queries []T
	encode  func(T) any // query -> JSON-encodable request form
}

// buildFixtures writes an index-set directory holding a NAPP over SIFT/L2
// and a VP-tree over DNA/normalized-Levenshtein, returning the originals
// for comparison. Queries are drawn from a different generator seed, so
// they are near the corpus but not of it; corpus points are appended too.
func buildFixtures(t *testing.T) (dir string, dense e2eFixture[[]float32], dna e2eFixture[[]byte]) {
	t.Helper()
	dir = t.TempDir()

	sift := dataset.SIFT(e2eSeed, e2eDenseN)
	na, err := core.NewNAPP[[]float32](space.L2{}, sift, core.NAPPOptions{
		NumPivots: 64, NumPivotIndex: 16, MinShared: 1, Seed: e2eSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	writeFixture(t, dir, "sift-napp", na, Manifest{Dataset: "sift", Seed: e2eSeed, N: e2eDenseN})
	dense = e2eFixture[[]float32]{
		idx:     na,
		queries: append(dataset.SIFT(e2eSeed+1, 8), sift[:4]...),
		encode:  func(q []float32) any { return q },
	}

	dnaDB := dataset.DNA(e2eSeed, e2eDNAN, dataset.DNAOptions{})
	vt, err := vptree.New[[]byte](space.NormalizedLevenshtein{}, dnaDB, vptree.Options{Seed: e2eSeed})
	if err != nil {
		t.Fatal(err)
	}
	writeFixture(t, dir, "dna-vptree", vt, Manifest{Dataset: "dna", Seed: e2eSeed, N: e2eDNAN})
	dna = e2eFixture[[]byte]{
		idx:     vt,
		queries: append(dataset.DNA(e2eSeed+1, 8, dataset.DNAOptions{}), dnaDB[:4]...),
		encode:  func(q []byte) any { return string(q) },
	}
	return dir, dense, dna
}

// writeFixture saves one index file and its sidecar manifest.
func writeFixture[T any](t *testing.T, dir, name string, idx index.Index[T], man Manifest) {
	t.Helper()
	if _, _, err := WriteIndex(dir, name, idx, man); err != nil {
		t.Fatal(err)
	}
}

// bootServer opens dir and mounts the handler on an httptest server.
func bootServer(t *testing.T, dir string, opts Options) *httptest.Server {
	t.Helper()
	reg, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, opts).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postJSON posts body (marshaled) and returns status + raw response.
func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// wireNeighbors copies direct Search output into the shape a decoded answer
// has (non-nil even when empty). JSON's shortest-round-trip float encoding
// is exact for float64, so equality after decoding is equality of the
// original values.
func wireNeighbors(nbs []topk.Neighbor) []topk.Neighbor {
	return append([]topk.Neighbor{}, nbs...)
}

// checkServedMatchesDirect asserts single-query HTTP responses equal direct
// Search answers for every query and a spread of ks.
func checkServedMatchesDirect[T any](t *testing.T, ts *httptest.Server, name string, f e2eFixture[T]) {
	t.Helper()
	url := ts.URL + "/v1/indexes/" + name + "/search"
	for _, k := range []int{1, 10} {
		for qi, q := range f.queries {
			status, raw := postJSON(t, url, map[string]any{"query": f.encode(q), "k": k})
			if status != http.StatusOK {
				t.Fatalf("%s query %d k=%d: status %d: %s", name, qi, k, status, raw)
			}
			var got wire.SearchResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatalf("%s query %d: %v", name, qi, err)
			}
			want := wireNeighbors(f.idx.Search(q, k))
			if !reflect.DeepEqual(got.Results, want) {
				t.Fatalf("%s query %d k=%d: served %v, direct Search %v", name, qi, k, got.Results, want)
			}
		}
	}
}

func TestServedSearchMatchesDirect(t *testing.T) {
	dir, dense, dna := buildFixtures(t)
	ts := bootServer(t, dir, Options{Workers: 4, Timeout: 30 * time.Second})
	checkServedMatchesDirect(t, ts, "sift-napp", dense)
	checkServedMatchesDirect(t, ts, "dna-vptree", dna)
}

func TestServedBatchMatchesSerial(t *testing.T) {
	dir, dense, _ := buildFixtures(t)
	ts := bootServer(t, dir, Options{Workers: 4})
	const k = 5
	enc := make([]any, len(dense.queries))
	want := make([][]topk.Neighbor, len(dense.queries))
	for i, q := range dense.queries {
		enc[i] = dense.encode(q)
		want[i] = wireNeighbors(dense.idx.Search(q, k))
	}
	status, raw := postJSON(t, ts.URL+"/v1/indexes/sift-napp/search", map[string]any{"queries": enc, "k": k})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, raw)
	}
	var got wire.SearchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Batch, want) {
		t.Fatalf("batch differs from serial Search loop\ngot  %v\nwant %v", got.Batch, want)
	}
}

func TestServedListAndHealth(t *testing.T) {
	dir, _, _ := buildFixtures(t)
	ts := bootServer(t, dir, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Indexes []wire.IndexInfo `json:"indexes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Indexes) != 2 {
		t.Fatalf("listed %d indexes, want 2", len(list.Indexes))
	}
	want := []wire.IndexInfo{
		{Name: "dna-vptree", Kind: "vptree", Space: "normleven", N: e2eDNAN, Version: codec.Version, Dataset: "dna", Seed: e2eSeed},
		{Name: "sift-napp", Kind: "napp", Space: "l2", N: e2eDenseN, Version: codec.Version, Dataset: "sift", Seed: e2eSeed},
	}
	if !reflect.DeepEqual(list.Indexes, want) {
		t.Fatalf("listing = %+v, want %+v", list.Indexes, want)
	}
}

func TestServedErrorStatuses(t *testing.T) {
	dir, dense, _ := buildFixtures(t)
	ts := bootServer(t, dir, Options{})
	searchURL := ts.URL + "/v1/indexes/sift-napp/search"
	q := dense.encode(dense.queries[0])

	// Unknown index: 404 for search and reload.
	if status, _ := postJSON(t, ts.URL+"/v1/indexes/nope/search", map[string]any{"query": q}); status != http.StatusNotFound {
		t.Fatalf("unknown index search: status %d", status)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/indexes/nope/reload", nil); status != http.StatusNotFound {
		t.Fatalf("unknown index reload: status %d", status)
	}

	// Malformed bodies: 400.
	for name, body := range map[string]any{
		"neither query nor queries": map[string]any{"k": 3},
		"both query and queries":    map[string]any{"query": q, "queries": []any{q}},
		"negative k":                map[string]any{"query": q, "k": -2},
		"wrong query shape":         map[string]any{"query": "not a vector"},
		"wrong dimensionality":      map[string]any{"query": []float32{1, 2, 3}},
		"unknown method param":      map[string]any{"query": q, "params": map[string]float64{"ef": 3}},
		"out-of-range method param": map[string]any{"query": q, "params": map[string]float64{"gamma": -1}},
		"int-overflowing param":     map[string]any{"query": q, "params": map[string]float64{"t": 1e300}},
	} {
		if status, raw := postJSON(t, searchURL, body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d: %s", name, status, raw)
		}
	}
	resp, err := http.Post(searchURL, "application/json", bytes.NewReader([]byte("{broken")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unparsable body: status %d", resp.StatusCode)
	}

	// A huge k is capped at the corpus size instead of pre-allocating a
	// huge top-k queue: the request must succeed, quickly, with at most n
	// results — identical to what Search(q, n) returns.
	status, raw := postJSON(t, searchURL, map[string]any{"query": q, "k": 2_000_000_000})
	if status != http.StatusOK {
		t.Fatalf("huge k: status %d: %s", status, raw)
	}
	var got wire.SearchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if want := wireNeighbors(dense.idx.Search(dense.queries[0], e2eDenseN)); !reflect.DeepEqual(got.Results, want) {
		t.Fatalf("huge k returned %d results, want the k=n answer (%d)", len(got.Results), len(want))
	}
}

// TestServedPerRequestParams: a request's method params hold for exactly
// that request — they change its results and never reach the next one.
func TestServedPerRequestParams(t *testing.T) {
	dir := t.TempDir()
	sift := dataset.SIFT(e2eSeed, e2eDenseN)
	bf, err := core.NewBruteForceFilter[[]float32](space.L2{}, sift, core.BruteForceOptions{
		NumPivots: 32, Seed: e2eSeed, // default gamma 0.02
	})
	if err != nil {
		t.Fatal(err)
	}
	writeFixture(t, dir, "sift-bf", bf, Manifest{Dataset: "sift", Seed: e2eSeed, N: e2eDenseN})
	ts := bootServer(t, dir, Options{})
	url := ts.URL + "/v1/indexes/sift-bf/search"
	q := dataset.SIFT(e2eSeed+1, 1)[0]

	// Direct reference answers under default and overridden gamma.
	wantDefault := wireNeighbors(bf.Search(q, 10))
	wantFull := wireNeighbors(bf.SearchAppend(nil, q, index.Options{K: 10, Params: index.Params{Gamma: 1}}))
	if reflect.DeepEqual(wantDefault, wantFull) {
		t.Fatal("test needs gamma to change this query's answer; pick another query")
	}

	var got wire.SearchResponse
	status, raw := postJSON(t, url, map[string]any{"query": q, "params": map[string]float64{"gamma": 1}})
	if status != http.StatusOK {
		t.Fatalf("params request: status %d: %s", status, raw)
	}
	if json.Unmarshal(raw, &got); !reflect.DeepEqual(got.Results, wantFull) {
		t.Fatalf("gamma=1 request: served %v, want %v", got.Results, wantFull)
	}
	// Next plain request sees the manifest defaults again.
	status, raw = postJSON(t, url, map[string]any{"query": q})
	if status != http.StatusOK {
		t.Fatalf("follow-up request: status %d: %s", status, raw)
	}
	if json.Unmarshal(raw, &got); !reflect.DeepEqual(got.Results, wantDefault) {
		t.Fatalf("params leaked: served %v, want default %v", got.Results, wantDefault)
	}
}

// panicServed stands in for an index whose Search has a bug.
type panicServed struct{}

func (panicServed) search(json.RawMessage, index.Options) ([]topk.Neighbor, error) {
	panic("search exploded")
}

func (panicServed) searchBatch(raws []json.RawMessage, _ index.Options, pool engine.Pool) ([][]topk.Neighbor, error) {
	// Through the real worker pool, so the test also covers engine panic
	// propagation surfacing as an HTTP status.
	out := make([][]topk.Neighbor, len(raws))
	pool.For(len(raws), func(_, _ int) {
		panic("search exploded")
	})
	return out, nil
}

// TestServedSearchPanicIs500: a panicking Search answers 500 — not a
// killed connection, not a dead daemon — and the server keeps serving.
func TestServedSearchPanicIs500(t *testing.T) {
	e := &entry{name: "boom"}
	e.snap.Store(&snapshot{served: panicServed{}})
	reg := &Registry{entries: map[string]*entry{"boom": e}, names: []string{"boom"}}
	ts := httptest.NewServer(New(reg, Options{Workers: 4}).Handler())
	defer ts.Close()

	for name, body := range map[string]any{
		"single": map[string]any{"query": []float32{1}},
		"batch":  map[string]any{"queries": []any{[]float32{1}, []float32{2}}},
	} {
		status, raw := postJSON(t, ts.URL+"/v1/indexes/boom/search", body)
		if status != http.StatusInternalServerError {
			t.Fatalf("%s: status %d: %s", name, status, raw)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: 500 body %q not a JSON error (%v)", name, raw, err)
		}
	}
	// The daemon survived both panics.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panics: status %d", resp.StatusCode)
	}
}

// TestServedConcurrentClients hammers single and batch searches from many
// goroutines; every response must be correct. The CI race job runs this.
func TestServedConcurrentClients(t *testing.T) {
	dir, dense, dna := buildFixtures(t)
	ts := bootServer(t, dir, Options{Workers: 4})
	iters := 30
	if testing.Short() {
		iters = 8
	}

	denseURL := ts.URL + "/v1/indexes/sift-napp/search"
	dnaURL := ts.URL + "/v1/indexes/dna-vptree/search"
	wantDense := make([][]topk.Neighbor, len(dense.queries))
	for i, q := range dense.queries {
		wantDense[i] = wireNeighbors(dense.idx.Search(q, 10))
	}
	wantDNA := make([][]topk.Neighbor, len(dna.queries))
	for i, q := range dna.queries {
		wantDNA[i] = wireNeighbors(dna.idx.Search(q, 10))
	}

	var wg sync.WaitGroup
	var failures atomic.Int32
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters && failures.Load() == 0; it++ {
				qi := (g + it) % len(dense.queries)
				switch it % 3 {
				case 0: // dense single
					status, raw := postJSON(t, denseURL, map[string]any{"query": dense.queries[qi]})
					var got wire.SearchResponse
					if status != http.StatusOK {
						fail("dense single: status %d: %s", status, raw)
					} else if json.Unmarshal(raw, &got); !reflect.DeepEqual(got.Results, wantDense[qi]) {
						fail("dense single query %d: wrong results", qi)
					}
				case 1: // dense batch (whole query set)
					enc := make([]any, len(dense.queries))
					for i, q := range dense.queries {
						enc[i] = dense.encode(q)
					}
					status, raw := postJSON(t, denseURL, map[string]any{"queries": enc})
					var got wire.SearchResponse
					if status != http.StatusOK {
						fail("dense batch: status %d: %s", status, raw)
					} else if json.Unmarshal(raw, &got); !reflect.DeepEqual(got.Batch, wantDense) {
						fail("dense batch: wrong results")
					}
				case 2: // dna single
					status, raw := postJSON(t, dnaURL, map[string]any{"query": dna.encode(dna.queries[qi])})
					var got wire.SearchResponse
					if status != http.StatusOK {
						fail("dna single: status %d: %s", status, raw)
					} else if json.Unmarshal(raw, &got); !reflect.DeepEqual(got.Results, wantDNA[qi]) {
						fail("dna single query %d: wrong results", qi)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHotReloadUnderLoad is the hot-swap race test: one goroutine flips the
// served file between two different index generations and reloads in a
// loop, while client goroutines hammer searches. Every response must be a
// 200 carrying exactly generation A's or generation B's answer — a torn
// read (a mix) or a dropped request fails, and the CI race job watches the
// swap itself.
func TestHotReloadUnderLoad(t *testing.T) {
	dir := t.TempDir()
	db := dataset.DNA(e2eSeed, 120, dataset.DNAOptions{})
	sp := space.NormalizedLevenshtein{}
	vtA, err := vptree.New[[]byte](sp, db, vptree.Options{Seed: e2eSeed})
	if err != nil {
		t.Fatal(err)
	}
	// Generation B: a different index kind over the same corpus, so the
	// two generations give recognizably different answers.
	bfB, err := core.NewBruteForceFilter[[]byte](sp, db, core.BruteForceOptions{NumPivots: 16, Seed: e2eSeed})
	if err != nil {
		t.Fatal(err)
	}

	writeFixture[[]byte](t, dir, "dna", vtA, Manifest{Dataset: "dna", Seed: e2eSeed, N: 120})
	ts := bootServer(t, dir, Options{Workers: 2})
	searchURL := ts.URL + "/v1/indexes/dna/search"
	reloadURL := ts.URL + "/v1/indexes/dna/reload"
	path := filepath.Join(dir, "dna"+persist.Ext)

	query := dataset.DNA(e2eSeed+1, 1, dataset.DNAOptions{})[0]
	wantA := wireNeighbors(vtA.Search(query, 5))
	wantB := wireNeighbors(bfB.Search(query, 5))

	reloads := 40
	if testing.Short() {
		reloads = 10
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the swapper
		defer wg.Done()
		defer close(done)
		for i := 0; i < reloads; i++ {
			idx := index.Index[[]byte](vtA)
			if i%2 == 0 {
				idx = bfB
			}
			if err := persist.SaveFile(path, idx); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
			if status, raw := postJSON(t, reloadURL, nil); status != http.StatusOK {
				t.Errorf("reload %d: status %d: %s", i, status, raw)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() { // the clients
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				status, raw := postJSON(t, searchURL, map[string]any{"query": string(query), "k": 5})
				if status != http.StatusOK {
					t.Errorf("search during reload: status %d: %s", status, raw)
					return
				}
				var got wire.SearchResponse
				if err := json.Unmarshal(raw, &got); err != nil {
					t.Errorf("search during reload: %v", err)
					return
				}
				if !reflect.DeepEqual(got.Results, wantA) && !reflect.DeepEqual(got.Results, wantB) {
					t.Errorf("torn read: results %v match neither generation\nA %v\nB %v", got.Results, wantA, wantB)
					return
				}
			}
		}()
	}
	wg.Wait()

	// After the dust settles the server serves exactly the last generation.
	status, raw := postJSON(t, searchURL, map[string]any{"query": string(query), "k": 5})
	if status != http.StatusOK {
		t.Fatalf("post-reload search: status %d", status)
	}
	var got wire.SearchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	wantLast := wantA
	if (reloads-1)%2 == 0 {
		wantLast = wantB
	}
	if !reflect.DeepEqual(got.Results, wantLast) {
		t.Fatalf("final generation: served %v, want %v", got.Results, wantLast)
	}
}

// TestReloadFailureKeepsServing: a reload pointed at a corrupt file answers
// 500 and the previous generation keeps answering correctly.
func TestReloadFailureKeepsServing(t *testing.T) {
	dir, dense, _ := buildFixtures(t)
	ts := bootServer(t, dir, Options{})
	path := filepath.Join(dir, "sift-napp"+persist.Ext)
	if err := os.WriteFile(path, []byte("definitely not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if status, raw := postJSON(t, ts.URL+"/v1/indexes/sift-napp/reload", nil); status != http.StatusInternalServerError {
		t.Fatalf("reload of corrupt file: status %d: %s", status, raw)
	}
	q := dense.queries[0]
	status, raw := postJSON(t, ts.URL+"/v1/indexes/sift-napp/search", map[string]any{"query": q})
	if status != http.StatusOK {
		t.Fatalf("search after failed reload: status %d", status)
	}
	var got wire.SearchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if want := wireNeighbors(dense.idx.Search(q, 10)); !reflect.DeepEqual(got.Results, want) {
		t.Fatal("old generation no longer answers correctly after failed reload")
	}
}

// TestOpenDirRejectsBrokenSets: missing sidecars, corrupt files and empty
// directories refuse to serve rather than half-serving.
func TestOpenDirRejectsBrokenSets(t *testing.T) {
	if _, err := OpenDir(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}

	dir := t.TempDir()
	db := dataset.SIFT(e2eSeed, 50)
	bf, err := core.NewBruteForceFilter[[]float32](space.L2{}, db, core.BruteForceOptions{NumPivots: 8, Seed: e2eSeed})
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveFile(filepath.Join(dir, "orphan"+persist.Ext), bf); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); err == nil {
		t.Error("index without sidecar manifest accepted")
	}

	// Wrong manifest n: the loader must reject rather than serve an index
	// whose ids point into a different corpus.
	man, _ := json.Marshal(Manifest{Dataset: "sift", Seed: e2eSeed, N: 49})
	if err := os.WriteFile(filepath.Join(dir, "orphan.json"), man, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); err == nil {
		t.Error("manifest with mismatched n accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, "orphan.json"), []byte(fmt.Sprintf(`{"dataset":"sift","seed":%d,"n":50}`, e2eSeed)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
}
