// Package wire is the JSON dialect of the serving stack, declared once:
// the search request and response, the /v1/indexes row, the error body, and
// the helpers that read and write them. permserve (internal/server) and
// permrouter (internal/router) answer in it; the router, the rollout
// driver and permctl read it back. A complete answer through the router is
// byte-identical to the same answer from one unsharded daemon because both
// marshal the same struct — the router's degraded-mode fields are omitted
// unless a shard failed.
package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"

	"repro/internal/jsonscan"
	"repro/internal/shard"
	"repro/internal/topk"
)

// MaxBodyBytes caps a request body and what a client reads back from one
// daemon; a batch of a few thousand dense queries fits with room to spare,
// a runaway peer does not.
const MaxBodyBytes = 64 << 20

// MaxNeighbors caps k × queries, the result entries one search request may
// ask for, after k is capped at the corpus size. The body cap alone bounds
// the query count, not the answer: a batch of a million short strings at a
// k of the corpus size would allocate results on the order of both.
const MaxNeighbors = 1 << 20

// SearchRequest is the body of POST /v1/indexes/{name}/search.
type SearchRequest struct {
	// Query is one object in the index's JSON query encoding; Queries is
	// a batch. Exactly one of the two must be present.
	Query   json.RawMessage   `json:"query,omitempty"`
	Queries []json.RawMessage `json:"queries,omitempty"`
	// K is the neighbor count (default 10).
	K int `json:"k,omitempty"`
	// Params are query-time method params for this request only.
	Params map[string]float64 `json:"params,omitempty"`
}

// NumQueries is the number of queries the request carries.
func (r *SearchRequest) NumQueries() int {
	if r.Query != nil {
		return 1
	}
	return len(r.Queries)
}

// CheckNeighbors refuses a request whose k × queries exceeds MaxNeighbors.
// Call it after capping k at the corpus size, before decoding or forwarding
// the queries; its error is the client's (a 400).
func (r *SearchRequest) CheckNeighbors() error {
	if n := r.NumQueries(); r.K > MaxNeighbors/n {
		return fmt.Errorf("k × queries = %d × %d exceeds the %d neighbors one request may ask for", r.K, n, MaxNeighbors)
	}
	return nil
}

// DecodeSearch reads and validates a search body: exactly one of "query"
// and a non-empty "queries", k defaulted to 10 and positive. Every error
// is the client's (a 400). The raw body is returned beside the request so
// a router can forward it verbatim; Query and Queries alias it.
func DecodeSearch(r *http.Request) (req SearchRequest, body []byte, err error) {
	body, err = readBody(r)
	if err != nil {
		return req, nil, fmt.Errorf("reading body: %v", err)
	}
	if err := readSearch(body, &req); err != nil {
		return req, nil, fmt.Errorf("malformed body: %v", err)
	}
	if (req.Query == nil) == (len(req.Queries) == 0) {
		return req, nil, fmt.Errorf(`body must carry exactly one of "query" or a non-empty "queries"`)
	}
	if req.K == 0 {
		req.K = 10
	}
	if req.K < 0 {
		return req, nil, fmt.Errorf("k must be positive, got %d", req.K)
	}
	return req, body, nil
}

// readBody reads a request body of at most MaxBodyBytes into one buffer
// sized by its Content-Length (trusted up to 1 MiB, so a false claim
// reserves no more) instead of io.ReadAll's doubling from 512 bytes.
func readBody(r *http.Request) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(r.ContentLength, 0), 1<<20)+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
	return buf.Bytes(), err
}

var searchFields = []string{"query", "queries", "k", "params"}

// readSearch is json.Unmarshal(body, req) in one pass over the body: it
// accepts exactly the bodies Unmarshal accepts and fills req alike, but
// Query and Queries are sub-slices of the body rather than copies, and only
// the small "k" and "params" values go through encoding/json.
func readSearch(body []byte, req *SearchRequest) error {
	return readEnvelope(body, searchFields, func(field int, r *jsonscan.Reader) (err error) {
		switch field {
		case 0:
			req.Query, err = r.Value()
		case 1:
			req.Queries, err = readList(r, req.Queries)
		case 2:
			err = unmarshalValue(r, &req.K)
		case 3:
			err = unmarshalValue(r, &req.Params)
		default:
			_, err = r.Value()
		}
		return err
	})
}

// DecodeAdd reads the body of POST /v1/indexes/{name}/add: exactly one of
// "object" (one object in the index's JSON query encoding) and a non-empty
// "objects" (a batch), read as DecodeSearch reads a search body. It returns
// the objects in order, aliasing the body; every error is the client's (a
// 400).
func DecodeAdd(r *http.Request) ([][]byte, error) {
	var one []byte
	var many [][]byte
	body, err := readBody(r)
	if err == nil {
		err = readEnvelope(body, addFields, func(field int, r *jsonscan.Reader) (err error) {
			switch field {
			case 0:
				one, err = r.Value()
			case 1:
				many, err = readList(r, many)
			default:
				_, err = r.Value()
			}
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("malformed body: %v", err)
	}
	if (one == nil) == (len(many) == 0) {
		return nil, errors.New(`body must carry exactly one of "object" or a non-empty "objects"`)
	}
	if one != nil {
		return [][]byte{one}, nil
	}
	return many, nil
}

var addFields = []string{"object", "objects"}

// readEnvelope walks a body that must be one JSON object (or null, which
// sets nothing) and hands each member whose key selects one of fields, as
// json.Unmarshal selects struct fields, to read; read must consume the
// value. Unknown members are validated and skipped.
func readEnvelope(body []byte, fields []string, read func(field int, r *jsonscan.Reader) error) error {
	r := jsonscan.NewReader(body)
	if !r.Null() {
		if err := r.Object(func(key []byte) error { return read(jsonscan.Field(key, fields), r) }); err != nil {
			return err
		}
	}
	return r.End()
}

// readList reads a slice-of-raw-values field as json.Unmarshal does: null
// empties it, an array replaces its elements, anything else is a type
// error. The elements alias the body.
func readList[E ~[]byte](r *jsonscan.Reader, list []E) ([]E, error) {
	if r.Null() {
		return nil, nil
	}
	list = list[:0]
	err := r.Array(func() error {
		v, err := r.Value()
		list = append(list, v)
		return err
	})
	return list, err
}

// unmarshalValue decodes the next value into v with encoding/json. Called
// for every occurrence of a key, in order, into the same field, it keeps
// what one Unmarshal of the whole body does with duplicates: a later null
// leaves an int as it was and clears a map, and two objects merge into one
// map.
func unmarshalValue(r *jsonscan.Reader, v any) error {
	raw, err := r.Value()
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

// SearchResponse answers a search: Results for a one-query request, Batch
// (one list per query, in request order) for a batch. Build one with
// Single or Batch, which keep every list non-nil so an empty answer encodes
// as [] — a nil Results or Batch means the field was absent, which is how
// a reader tells the two shapes (and a wrong-shaped peer) apart.
type SearchResponse struct {
	Index   string            `json:"index"`
	K       int               `json:"k"`
	Results []topk.Neighbor   `json:"results,omitzero"`
	Batch   [][]topk.Neighbor `json:"batch,omitzero"`
	// Partial marks a router's fail-open answer merged from a strict
	// subset of shards: correct ids, true distances, but possibly missing
	// neighbors owned by FailedShards.
	Partial      bool  `json:"partial,omitempty"`
	FailedShards []int `json:"failed_shards,omitempty"`
}

// Single builds the answer to a one-query request.
func Single(index string, k int, results []topk.Neighbor) *SearchResponse {
	return &SearchResponse{Index: index, K: k, Results: nonNil(results)}
}

// Batch builds the answer to a batch request; batch is updated in place.
func Batch(index string, k int, batch [][]topk.Neighbor) *SearchResponse {
	for i := range batch {
		batch[i] = nonNil(batch[i])
	}
	return &SearchResponse{Index: index, K: k, Batch: batch}
}

func nonNil(ns []topk.Neighbor) []topk.Neighbor {
	if ns == nil {
		return []topk.Neighbor{}
	}
	return ns
}

// IndexInfo is one row of a daemon's GET /v1/indexes. For a shard index N
// is the subset size served by the process, CorpusN the full corpus size,
// and Shard the membership stamp a router uses to sanity-check its wiring.
type IndexInfo struct {
	Name       string      `json:"name"`
	Kind       string      `json:"kind"`
	Space      string      `json:"space"`
	N          uint64      `json:"n"`
	Version    uint16      `json:"version"`
	Dataset    string      `json:"dataset"`
	Seed       int64       `json:"seed"`
	Generation int64       `json:"generation,omitempty"`
	CorpusN    int         `json:"corpus_n,omitempty"`
	Shard      *shard.Info `json:"shard,omitempty"`
}

// IndexList is the body of GET /v1/indexes.
type IndexList struct {
	Indexes []IndexInfo `json:"indexes"`
}

// ListIndexes fetches the index set the daemon at base serves.
func ListIndexes(ctx context.Context, client *http.Client, base string) ([]IndexInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/indexes", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxBodyBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("listing indexes: status %d: %s", resp.StatusCode, ErrorBody(raw))
	}
	var out IndexList
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("listing indexes: %v", err)
	}
	return out.Indexes, nil
}

// Healthy probes the readiness endpoint of the daemon at base: nil on 200,
// the transport error, or a *StatusError for any other answer. The body is
// drained, bounded, so the connection goes back to the pool.
func Healthy(ctx context.Context, client *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return &StatusError{Status: resp.StatusCode}
	}
	return nil
}

// StatusError is a readiness probe answered with a status other than 200.
type StatusError struct{ Status int }

func (e *StatusError) Error() string { return fmt.Sprintf("healthz status %d", e.Status) }

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// ErrorBody extracts the message of an error answer, falling back to the
// raw body when it is not one.
func ErrorBody(raw []byte) string {
	var e ErrorResponse
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}

// WriteJSON answers status with v as the JSON body. By the time encoding
// can fail the status line is out, so the failure (in practice: the client
// hung up) is only logged.
func WriteJSON(w http.ResponseWriter, lg *log.Logger, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		lg.Printf("writing response: %v", err)
	}
}

// WriteError answers status with an ErrorResponse body.
func WriteError(w http.ResponseWriter, lg *log.Logger, status int, msg string) {
	WriteJSON(w, lg, status, ErrorResponse{Error: msg, Status: status})
}
