package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/topk"
)

// TestGoldenBytes pins the dialect byte for byte: what permserve and
// permrouter put on the wire is what these strings say, field order and
// trailing newline included.
func TestGoldenBytes(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	nbs := []topk.Neighbor{{ID: 7, Dist: 0.5}, {ID: 2, Dist: 1.25}}
	partial := Single("dna", 2, nbs)
	partial.Partial, partial.FailedShards = true, []int{1}
	complete := Single("dna", 2, nbs)
	complete.Partial, complete.FailedShards = false, nil // what the router sets when no shard failed
	for _, tc := range []struct {
		name  string
		write func(w *httptest.ResponseRecorder)
		code  int
		want  string
	}{
		{"single", func(w *httptest.ResponseRecorder) { WriteJSON(w, quiet, 200, Single("sift", 2, nbs)) }, 200,
			`{"index":"sift","k":2,"results":[{"id":7,"dist":0.5},{"id":2,"dist":1.25}]}`},
		{"single empty", func(w *httptest.ResponseRecorder) { WriteJSON(w, quiet, 200, Single("sift", 3, nil)) }, 200,
			`{"index":"sift","k":3,"results":[]}`},
		{"batch", func(w *httptest.ResponseRecorder) {
			WriteJSON(w, quiet, 200, Batch("sift", 1, [][]topk.Neighbor{nbs[:1], nil}))
		}, 200,
			`{"index":"sift","k":1,"batch":[[{"id":7,"dist":0.5}],[]]}`},
		{"router complete", func(w *httptest.ResponseRecorder) { WriteJSON(w, quiet, 200, complete) }, 200,
			`{"index":"dna","k":2,"results":[{"id":7,"dist":0.5},{"id":2,"dist":1.25}]}`},
		{"router partial", func(w *httptest.ResponseRecorder) { WriteJSON(w, quiet, 200, partial) }, 200,
			`{"index":"dna","k":2,"results":[{"id":7,"dist":0.5},{"id":2,"dist":1.25}],"partial":true,"failed_shards":[1]}`},
		{"error", func(w *httptest.ResponseRecorder) { WriteError(w, quiet, 404, `no index "x"`) }, 404,
			`{"error":"no index \"x\"","status":404}`},
		{"index list", func(w *httptest.ResponseRecorder) {
			WriteJSON(w, quiet, 200, IndexList{Indexes: []IndexInfo{{Name: "a", Kind: "napp", Space: "l2", N: 5, Version: 2, Dataset: "sift", Seed: 1}}})
		}, 200,
			`{"indexes":[{"name":"a","kind":"napp","space":"l2","n":5,"version":2,"dataset":"sift","seed":1}]}`},
	} {
		w := httptest.NewRecorder()
		tc.write(w)
		if w.Code != tc.code || w.Body.String() != tc.want+"\n" {
			t.Errorf("%s: status %d body %q, want %d %q", tc.name, w.Code, w.Body.String(), tc.code, tc.want+"\n")
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content-type %q", tc.name, ct)
		}
	}
}

// TestDecodeSearch covers every rejection message and the accepted shapes.
func TestDecodeSearch(t *testing.T) {
	for _, tc := range []struct {
		body    string
		wantErr string // prefix; "" = accepted
		k, n    int
	}{
		{body: `{"query": [1, 2]}`, k: 10, n: 1},
		{body: `{"query": "ACGT", "k": 3, "params": {"t": 2}}`, k: 3, n: 1},
		{body: `{"queries": ["A", "C"], "k": 1}`, k: 1, n: 2},
		{body: `{"query": 1`, wantErr: "malformed body: "},
		{body: `{"k": "ten", "query": 1}`, wantErr: "malformed body: "},
		{body: `{}`, wantErr: `body must carry exactly one of "query" or a non-empty "queries"`},
		{body: `{"queries": []}`, wantErr: `body must carry exactly one of "query" or a non-empty "queries"`},
		{body: `{"query": 1, "queries": [1]}`, wantErr: `body must carry exactly one of "query" or a non-empty "queries"`},
		{body: `{"query": 1, "k": -2}`, wantErr: "k must be positive, got -2"},
	} {
		req, body, err := DecodeSearch(httptest.NewRequest("POST", "/", strings.NewReader(tc.body)))
		if tc.wantErr != "" {
			if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want prefix %q", tc.body, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.body, err)
			continue
		}
		if req.K != tc.k || req.NumQueries() != tc.n || string(body) != tc.body {
			t.Errorf("%s: k=%d queries=%d body=%q, want k=%d queries=%d and the body verbatim",
				tc.body, req.K, req.NumQueries(), body, tc.k, tc.n)
		}
	}
	// An unreadable body is the remaining 400.
	r := httptest.NewRequest("POST", "/", io.MultiReader(strings.NewReader(`{"query"`), errReader{}))
	if _, _, err := DecodeSearch(r); err == nil || !strings.HasPrefix(err.Error(), "reading body: ") {
		t.Errorf("failing reader: error %v, want prefix %q", err, "reading body: ")
	}
}

// FuzzDecodeSearch feeds arbitrary bodies to DecodeSearch: it must never
// panic; what it accepts carries exactly one of query/queries and k ≥ 1 and
// hands the body back verbatim; and re-marshalling an accepted request
// decodes to an equal request. Objects are compared as json.Marshal writes
// them (compacted), since that is all re-marshalling promises to keep.
func FuzzDecodeSearch(f *testing.F) {
	for _, body := range []string{
		`{"query": [1, 2]}`, `{"query": "ACGT", "k": 3, "params": {"t": 2}}`, `{"queries": ["A", "C"], "k": 1}`,
		`{"query": 1`, `{"k": "ten", "query": 1}`, `{}`, `{"queries": []}`, `{"query": 1, "k": -2}`,
		`{"k":-1}`, `{"query":1,"queries":[1]}`, `{"query":1,"k":1e400}`,
		`{"query": null, "params": {}}`, `{"queries": [{"idx": [3], "val": [0.5]}], "k": 0}`,
	} {
		f.Add([]byte(body))
	}
	decode := func(body []byte) (SearchRequest, []byte, error) {
		return DecodeSearch(httptest.NewRequest("POST", "/", bytes.NewReader(body)))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		req, body, err := decode(in)
		if err != nil {
			return
		}
		if (req.Query != nil) == (len(req.Queries) > 0) || req.K < 1 || !bytes.Equal(body, in) {
			t.Fatalf("%q accepted as query=%q queries=%d k=%d body=%q", in, req.Query, len(req.Queries), req.K, body)
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%q: accepted request does not marshal: %v", in, err)
		}
		again, _, err := decode(out)
		if err != nil {
			t.Fatalf("%q: re-marshalled as %s, refused: %v", in, out, err)
		}
		if !sameRequest(again, req) {
			t.Fatalf("%q: re-marshalled as %s, decodes to %+v, was %+v", in, out, again, req)
		}
	})
}

// sameRequest compares two search requests field by field, each object in
// its compacted form.
func sameRequest(a, b SearchRequest) bool {
	compact := func(m json.RawMessage) string {
		out, _ := json.Marshal(m)
		return string(out)
	}
	return a.K == b.K && maps.Equal(a.Params, b.Params) && compact(a.Query) == compact(b.Query) &&
		slices.EqualFunc(a.Queries, b.Queries, func(x, y json.RawMessage) bool { return compact(x) == compact(y) })
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }

// TestErrorBody: the message of an error answer, or the raw text of
// anything else.
func TestErrorBody(t *testing.T) {
	for raw, want := range map[string]string{
		`{"error":"k must be positive, got -1","status":400}` + "\n": "k must be positive, got -1",
		"  upstream exploded\n": "upstream exploded",
		`{"status":500}`:        `{"status":500}`,
	} {
		if got := ErrorBody([]byte(raw)); got != want {
			t.Errorf("ErrorBody(%q) = %q, want %q", raw, got, want)
		}
	}
}

// TestHealthy: 200 is ready, any other status is a *StatusError carrying
// it, and a peer that cannot be reached is neither.
func TestHealthy(t *testing.T) {
	var status atomic.Int32
	status.Store(http.StatusOK)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/healthz" {
			http.NotFound(w, r)
			return
		}
		w.WriteHeader(int(status.Load()))
		io.WriteString(w, "ok\n")
	}))
	ctx, client := context.Background(), ts.Client()
	if err := Healthy(ctx, client, ts.URL); err != nil {
		t.Fatalf("ready peer: %v", err)
	}
	status.Store(http.StatusServiceUnavailable)
	var se *StatusError
	if err := Healthy(ctx, client, ts.URL); !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("503 peer: err = %v, want a *StatusError with status 503", err)
	}
	ts.Close()
	if err := Healthy(ctx, client, ts.URL); err == nil || errors.As(err, &se) {
		t.Fatalf("closed peer: err = %v, want a transport error", err)
	}
}
