package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
	// Query aliases the body, capped so that growing it copies.
	in := `{"query": [1, 2], "k": 3}`
	req, body, err := DecodeSearch(httptest.NewRequest("POST", "/", strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(req.Query, 'x')
	if &req.Query[0] != &body[bytes.IndexByte(body, '[')] || string(body) != in {
		t.Errorf("query %q does not alias the body %q, or growing it wrote into the body", req.Query, body)
	}
	// An unreadable body is the remaining 400.
	r := httptest.NewRequest("POST", "/", io.MultiReader(strings.NewReader(`{"query"`), errReader{}))
	if _, _, err := DecodeSearch(r); err == nil || !strings.HasPrefix(err.Error(), "reading body: ") {
		t.Errorf("failing reader: error %v, want prefix %q", err, "reading body: ")
	}
}

// TestDecodeAdd covers the /add envelope's rejection messages and its two
// accepted shapes.
func TestDecodeAdd(t *testing.T) {
	for _, tc := range []struct {
		body    string
		wantErr string // prefix; "" = accepted
		want    []string
	}{
		{body: `{"object": [1, 2]}`, want: []string{`[1, 2]`}},
		{body: `{"objects": ["AC", null, {"idx": [3]}]}`, want: []string{`"AC"`, `null`, `{"idx": [3]}`}},
		{body: `{"object": 1`, wantErr: "malformed body: "},
		{body: `{"objects": {}}`, wantErr: "malformed body: "},
		{body: `{}`, wantErr: `body must carry exactly one of "object" or a non-empty "objects"`},
		{body: `{"objects": []}`, wantErr: `body must carry exactly one of "object" or a non-empty "objects"`},
		{body: `{"object": 1, "objects": [1]}`, wantErr: `body must carry exactly one of "object" or a non-empty "objects"`},
	} {
		objs, err := DecodeAdd(httptest.NewRequest("POST", "/", strings.NewReader(tc.body)))
		if tc.wantErr != "" {
			if err == nil || !strings.HasPrefix(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want prefix %q", tc.body, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !slices.EqualFunc(objs, tc.want, func(o []byte, w string) bool { return string(o) == w }) {
			t.Errorf("%s: objects %q, error %v, want %q", tc.body, objs, err, tc.want)
		}
	}
	r := httptest.NewRequest("POST", "/", io.MultiReader(strings.NewReader(`{"object"`), errReader{}))
	if _, err := DecodeAdd(r); err == nil || !strings.HasPrefix(err.Error(), "malformed body: ") {
		t.Errorf("failing reader: error %v, want prefix %q", err, "malformed body: ")
	}
}

// quirkBodies are the corners of encoding/json's accept set the one-pass
// reader must share: whitespace, escapes, control characters and invalid
// UTF-8 in strings, case-folded keys (the Kelvin sign folds to k, the long
// s to s), duplicate keys, nulls, type errors, number grammar, trailing
// bytes, and the nesting limit inside a skipped member.
var quirkBodies = []string{
	" \t\r\n{ \"query\" :\t[1, 2] }\n", `{"\u0071uery": [1]}`, `{"query":"a\u00e9\"\\\/\b\f\n\r\t\ud800"}`,
	"{\"query\":\"a\x01\"}", "{\"query\":\"\xff\xfe\"}", "{\"\xffquery\":1}", "{\"query\":\"\x7f\"}",
	`{"QUERY":[1],"K":3}`, `{"Query":1,"\u212a":4}`, `{"querie\u017f":[1,2]}`, "{\"querie\u017f\":[1,2]}", `{"qUeRiEs":[1]}`,
	`{"query":1,"query":[2]}`, `{"k":3,"k":null,"query":1}`, `{"query":1,"k":null}`,
	`{"params":{"a":1},"params":{"b":2},"query":1}`, `{"params":{"a":1},"params":null,"query":1}`,
	`{"params":{"a":null},"query":1}`, `{"params":[],"query":1}`, `{"params":{"a":"1"},"query":1}`,
	`{"queries":[1],"queries":null,"query":2}`, `{"queries":[1,2],"queries":[3]}`, `{"queries":[],"query":1}`,
	`{"queries":{},"query":1}`, `{"queries":"a"}`, `{"queries":[null]}`, `{"query":null}`, `{"query":null,"queries":null}`,
	`{"x":{"y":[true,false,null,-0.5e+7]},"query":1}`, `{"x":1,}`, `{"query":1,}`, `{,"query":1}`,
	`{"k":1.0,"query":1}`, `{"k":-0,"query":1}`, `{"k":1e2,"query":1}`, `{"k":99999999999999999999,"query":1}`,
	`{"query":01}`, `{"query":-}`, `{"query":1.}`, `{"query":1e}`, `{"query":.5}`, `{"query":+1}`,
	`{"query":"\u12"}`, `{"query":"\x"}`, `{"query":tru}`, `{"query":nul}`, `{"query":[1,]}`, `{"query":[1 2]}`,
	`{"query":1} x`, `{"query":1}{}`, `[1]`, `"query"`, `null`, ` null `, `nul`, `true`, ``, "\xef\xbb\xbf{\"query\":1}",
	`{"query":1,"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"query":1,"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"query":1,"x":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
	`{"query":1,"x":` + strings.Repeat(`{"a":`, 9999) + "0" + strings.Repeat("}", 9999) + `}`,
	`{"object":[1]}`, `{"objects":[[1],"a",null]}`, `{"OBJECT":1,"objects":null}`, `{"object":1,"objects":[2]}`, `{"objects":[]}`,
}

// FuzzDecodeSearch holds DecodeSearch to the decoder it replaced,
// json.Unmarshal into SearchRequest followed by the same checks: it must
// accept exactly the bodies that accepts, with equal Query and Queries
// bytes, K and Params, refuse the rest with the same message (or both as
// a malformed body), and never panic. DecodeAdd is held to json.Unmarshal
// into its {"object","objects"} envelope the same way.
func FuzzDecodeSearch(f *testing.F) {
	for _, body := range []string{
		`{"query": [1, 2]}`, `{"query": "ACGT", "k": 3, "params": {"t": 2}}`, `{"queries": ["A", "C"], "k": 1}`,
		`{"query": 1`, `{"k": "ten", "query": 1}`, `{}`, `{"queries": []}`, `{"query": 1, "k": -2}`,
		`{"k":-1}`, `{"query":1,"queries":[1]}`, `{"query":1,"k":1e400}`,
		`{"query": null, "params": {}}`, `{"queries": [{"idx": [3], "val": [0.5]}], "k": 0}`,
	} {
		f.Add([]byte(body))
	}
	for _, body := range quirkBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		req, body, err := DecodeSearch(httptest.NewRequest("POST", "/", bytes.NewReader(in)))
		want, wantErr := referenceSearch(in)
		sameError(t, "DecodeSearch", in, err, wantErr)
		if err == nil && (!bytes.Equal(body, in) || !sameRaw(req.Query, want.Query) ||
			!slices.EqualFunc(req.Queries, want.Queries, sameRaw) || req.K != want.K || !maps.Equal(req.Params, want.Params)) {
			t.Fatalf("%q decoded as query=%q queries=%q k=%d params=%v body=%q, json.Unmarshal gives query=%q queries=%q k=%d params=%v",
				in, req.Query, req.Queries, req.K, req.Params, body, want.Query, want.Queries, want.K, want.Params)
		}

		objs, err := DecodeAdd(httptest.NewRequest("POST", "/", bytes.NewReader(in)))
		wantObjs, wantErr := referenceAdd(in)
		sameError(t, "DecodeAdd", in, err, wantErr)
		if err == nil && !slices.EqualFunc(objs, wantObjs, bytes.Equal) {
			t.Fatalf("%q added as %q, json.Unmarshal gives %q", in, objs, wantObjs)
		}
	})
}

// sameError fails unless got and want are both nil, or both errors with
// the same message — where two malformed-body messages count as the same.
func sameError(t *testing.T, what string, in []byte, got, want error) {
	t.Helper()
	const malformed = "malformed body: "
	switch {
	case (got == nil) != (want == nil):
		t.Fatalf("%s(%q) = error %v, json.Unmarshal gives %v", what, in, got, want)
	case got == nil:
	case strings.HasPrefix(got.Error(), malformed) && strings.HasPrefix(want.Error(), malformed):
	case got.Error() != want.Error():
		t.Fatalf("%s(%q) = error %q, json.Unmarshal gives %q", what, in, got, want)
	}
}

// sameRaw compares two raw values byte for byte, absent apart from present.
func sameRaw[E ~[]byte](a, b E) bool { return (a == nil) == (b == nil) && bytes.Equal(a, b) }

// referenceSearch is DecodeSearch as it was before the one-pass reader.
func referenceSearch(body []byte) (req SearchRequest, err error) {
	if err := json.Unmarshal(body, &req); err != nil {
		return req, fmt.Errorf("malformed body: %v", err)
	}
	if (req.Query == nil) == (len(req.Queries) == 0) {
		return req, fmt.Errorf(`body must carry exactly one of "query" or a non-empty "queries"`)
	}
	if req.K == 0 {
		req.K = 10
	}
	if req.K < 0 {
		return req, fmt.Errorf("k must be positive, got %d", req.K)
	}
	return req, nil
}

// referenceAdd is the /add envelope as permserve read it before DecodeAdd.
func referenceAdd(body []byte) ([][]byte, error) {
	var req struct {
		Object  json.RawMessage   `json:"object,omitempty"`
		Objects []json.RawMessage `json:"objects,omitempty"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("malformed body: %v", err)
	}
	if (req.Object == nil) == (len(req.Objects) == 0) {
		return nil, errors.New(`body must carry exactly one of "object" or a non-empty "objects"`)
	}
	if req.Object != nil {
		return [][]byte{req.Object}, nil
	}
	out := make([][]byte, len(req.Objects))
	for i, obj := range req.Objects {
		out[i] = obj
	}
	return out, nil
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
