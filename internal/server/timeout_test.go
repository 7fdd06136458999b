package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/seqscan"
	"repro/internal/space"
)

// gatedSpace is L2 whose Distance parks until the test closes gate: a
// search that cannot finish inside any budget. entered receives a token
// when a Distance call reaches the gate.
type gatedSpace struct {
	space.L2
	gate    chan struct{}
	entered chan struct{}
}

func (g gatedSpace) Distance(a, b []float32) float64 {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	return g.L2.Distance(a, b)
}

// panicSpace is L2 whose Distance has a bug.
type panicSpace struct{ space.L2 }

func (panicSpace) Distance(a, b []float32) float64 { panic("distance exploded") }

// bootScan serves a sequential scan under sp as index "scan", built by
// hand so the space need not be one a file header can name.
func bootScan(t *testing.T, sp space.Space[[]float32], opts Options) *httptest.Server {
	t.Helper()
	data := [][]float32{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	dense, err := dataset.Typed[[]float32]("sift")
	if err != nil {
		t.Fatal(err)
	}
	dec := func(raw []byte) ([]float32, error) { return dense.Decode(raw, data[0]) }
	e := &entry{name: "scan"}
	e.snap.Store(&snapshot{
		served: &typedIndex[[]float32]{idx: seqscan.New(sp, data), dec: dec},
		hdr:    codec.Header{Kind: codec.KindSeqScan, Space: sp.Name(), N: uint64(len(data))},
	})
	reg := &Registry{entries: map[string]*entry{"scan": e}, names: []string{"scan"}}
	ts := httptest.NewServer(New(reg, opts).Handler())
	t.Cleanup(ts.Close)
	return ts
}

var timeoutBodies = map[string]any{
	"single": map[string]any{"query": []float32{0.2, 0.1}, "k": 2},
	"batch":  map[string]any{"queries": []any{[]float32{0.2, 0.1}, []float32{0.9, 0.8}, []float32{0.5, 0.5}}, "k": 2},
}

// TestSearchTimeout: a search over budget answers 504 and counts as a
// failure, and it is the request goroutine that was doing the work — no
// answer leaves while the search is still running, and once the search
// lets go nothing of the request is left behind.
func TestSearchTimeout(t *testing.T) {
	const budget = 5 * time.Millisecond
	// No keep-alives: every connection's goroutines end with its request,
	// so the goroutine count can return to the baseline.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for name, body := range timeoutBodies {
		t.Run(name, func(t *testing.T) {
			sp := gatedSpace{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
			ts := bootScan(t, sp, Options{Workers: 2, Timeout: budget, Metrics: obs.NewRegistry()})
			blob, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			baseline := runtime.NumGoroutine()

			type answer struct {
				status int
				raw    []byte
				err    error
			}
			done := make(chan answer, 1)
			go func() {
				resp, err := client.Post(ts.URL+"/v1/indexes/scan/search", "application/json", bytes.NewReader(blob))
				if err != nil {
					done <- answer{err: err}
					return
				}
				defer resp.Body.Close()
				raw, err := io.ReadAll(resp.Body)
				done <- answer{resp.StatusCode, raw, err}
			}()
			<-sp.entered
			// The deadline was armed before the search began, so it has
			// passed once twice the budget has gone by since entered.
			time.Sleep(2 * budget)
			select {
			case a := <-done:
				t.Fatalf("answered (status %d, err %v) while its search was still running", a.status, a.err)
			default:
			}
			close(sp.gate)
			a := <-done
			if a.err != nil {
				t.Fatal(a.err)
			}
			if a.status != http.StatusGatewayTimeout {
				t.Fatalf("status %d, want 504: %s", a.status, a.raw)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines, %d before the request; stacks:\n%s",
						runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(time.Millisecond)
			}
			tm := scrapeMetrics(t, ts)
			if got := metricValue(t, tm, "permserve_search_failures_total", map[string]string{"index": "scan"}); got != 1 {
				t.Errorf("permserve_search_failures_total = %v, want 1", got)
			}
		})
	}
}

// TestSearchPanickingSpaceIs500: a panic inside the distance function —
// on the request goroutine for one query, re-raised there by the worker
// pool for a batch — answers 500.
func TestSearchPanickingSpaceIs500(t *testing.T) {
	ts := bootScan(t, panicSpace{}, Options{Workers: 2, Timeout: time.Second, Metrics: obs.NewRegistry()})
	for name, body := range timeoutBodies {
		status, raw := postJSON(t, ts.URL+"/v1/indexes/scan/search", body)
		if status != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500: %s", name, status, raw)
		}
	}
}
