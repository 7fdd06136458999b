package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"
)

// neighbor is one search answer on the wire.
type neighbor struct {
	ID   uint32  `json:"id"`
	Dist float64 `json:"dist"`
}

// searchResponse covers both shapes of a search answer: "results" for a
// single query, "batch" for several.
type searchResponse struct {
	Index   string       `json:"index"`
	K       int          `json:"k"`
	Results []neighbor   `json:"results"`
	Batch   [][]neighbor `json:"batch"`
}

// post sends one JSON request and decodes the 200 answer into out. With a
// tracer it also records the request's send and wait phases as child spans
// of parent, from httptrace callbacks.
func (e *env) post(url string, body []byte, out any, tr *tracer, parent int) error {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	// The callbacks fire on transport goroutines; atomics carry their
	// timestamps (nanoseconds after sent) back to this one.
	var wrote, firstByte atomic.Int64
	sent := time.Now()
	if tr != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(int64(time.Since(sent))) },
			GotFirstResponseByte: func() { firstByte.Store(int64(time.Since(sent))) },
		}))
	}
	resp, err := e.http.Do(req)
	if err != nil {
		return err
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if w, f := time.Duration(wrote.Load()), time.Duration(firstByte.Load()); tr != nil && w > 0 && f >= w {
		tr.add("client.send", sent, sent.Add(w), parent)
		tr.add("client.wait", sent.Add(w), sent.Add(f), parent)
		tr.add("client.read", sent.Add(f), time.Now(), parent)
	}
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(blob))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(blob, out)
}

// checkShape verifies what every search answer must satisfy regardless of
// recall: the right index and k, one list per query, at most k neighbours
// each, ascending finite non-negative distances, distinct ids below idLimit.
func checkShape(resp *searchResponse, index string, numQueries int, single bool, idLimit uint32) ([][]neighbor, error) {
	if resp.Index != index || resp.K != topK {
		return nil, fmt.Errorf("answer for index %q k=%d, want %q k=%d", resp.Index, resp.K, index, topK)
	}
	lists := resp.Batch
	if single {
		if resp.Results == nil {
			return nil, fmt.Errorf("single-query answer has no \"results\"")
		}
		lists = [][]neighbor{resp.Results}
	}
	if len(lists) != numQueries {
		return nil, fmt.Errorf("answer has %d result lists, want %d", len(lists), numQueries)
	}
	for _, nbs := range lists {
		if len(nbs) > topK {
			return nil, fmt.Errorf("%d neighbours for k=%d", len(nbs), topK)
		}
		seen := make(map[uint32]bool, len(nbs))
		for i, nb := range nbs {
			switch {
			case math.IsNaN(nb.Dist) || math.IsInf(nb.Dist, 0) || nb.Dist < 0:
				return nil, fmt.Errorf("neighbour %d has distance %v", nb.ID, nb.Dist)
			case i > 0 && nb.Dist < nbs[i-1].Dist:
				return nil, fmt.Errorf("neighbours not ascending by distance")
			case nb.ID >= idLimit:
				return nil, fmt.Errorf("neighbour id %d out of range (limit %d)", nb.ID, idLimit)
			case seen[nb.ID]:
				return nil, fmt.Errorf("neighbour id %d returned twice", nb.ID)
			}
			seen[nb.ID] = true
		}
	}
	return lists, nil
}

// sample is one completed search request.
type sample struct {
	done    time.Duration // completion, as an offset from the start of the pass
	ms      float64       // client-observed latency
	queries int           // individual queries it answered
}

// searchLoad is what a closed-loop pass observed.
type searchLoad struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
}

// merge folds another pass (or one client's share of a pass) into l.
func (l *searchLoad) merge(o searchLoad) {
	l.samples = append(l.samples, o.samples...)
	l.attempted += o.attempted
	l.failed += o.failed
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

// searcher describes where and how search requests go.
type searcher struct {
	env     *env
	url     string // full search URL
	index   string
	single  bool
	idLimit *atomic.Uint32 // exclusive upper bound on a valid id; grows with every add sent
}

// closedLoop runs clients goroutines that each send the next request of the
// cyclic list as soon as their previous one is answered. Request i goes out
// unless stop(i) says the pass is over. Every answer is shape-checked; keep,
// when non-nil, receives each query's neighbours (indexed by query), which a
// one-pass run fills without overlap. Spans are recorded under parent when
// tr is non-nil.
func (s *searcher) closedLoop(reqs []request, clients int, stop func(i int64) bool, keep [][]neighbor, tr *tracer, parent int) searchLoad {
	var next atomic.Int64
	var mu sync.Mutex
	var out searchLoad
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local searchLoad
			for {
				i := next.Add(1) - 1
				if stop(i) {
					break
				}
				req := reqs[i%int64(len(reqs))]
				span := tr.begin("client.request", parent)
				t0 := time.Now()
				var resp searchResponse
				err := s.env.post(s.url, req.body, &resp, tr, span)
				lat := time.Since(t0)
				var lists [][]neighbor
				if err == nil {
					check := tr.begin("client.check", span)
					lists, err = checkShape(&resp, s.index, len(req.queries), s.single, s.idLimit.Load())
					tr.end(check)
				}
				tr.end(span)
				local.attempted++
				if err != nil {
					local.failed++
					if local.firstErr == nil {
						local.firstErr = err
					}
					continue
				}
				local.samples = append(local.samples, sample{
					done: time.Since(start), ms: float64(lat.Nanoseconds()) / 1e6, queries: len(req.queries),
				})
				if keep != nil {
					for j, qi := range req.queries {
						keep[qi] = lists[j]
					}
				}
			}
			mu.Lock()
			out.merge(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// until is a closedLoop stop rule: the pass ends at the deadline.
func until(deadline time.Time) func(int64) bool {
	return func(int64) bool { return !time.Now().Before(deadline) }
}

// once is a closedLoop stop rule: every request is sent exactly one time.
func once(reqs []request) func(int64) bool {
	return func(i int64) bool { return i >= int64(len(reqs)) }
}

// clock lets the open-loop scheduler run against fake time in tests.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// opTiming is when one scheduled operation was due, actually sent, and done.
type opTiming struct{ due, sent, done time.Duration }

// lateAfter is how far behind its due time a send counts as late: the
// generator, not the system, is then the one falling behind — or the
// system stalled the single writer, which is exactly what lateness exposes.
const lateAfter = time.Millisecond

// openLoop issues operations on a fixed schedule, in order, on the calling
// goroutine: op i is sent at start+dues[i], or at once if that moment has
// passed. Latency is measured from the due time, so a stall is charged to
// every operation it delays, not hidden by sending later. do runs op i to
// completion.
func openLoop(c clock, start time.Time, dues []time.Duration, do func(i int)) []opTiming {
	out := make([]opTiming, len(dues))
	for i, due := range dues {
		if wait := due - c.Now().Sub(start); wait > 0 {
			c.Sleep(wait)
		}
		sent := c.Now().Sub(start)
		do(i)
		out[i] = opTiming{due: due, sent: sent, done: c.Now().Sub(start)}
	}
	return out
}

// lateShare is the share of operations sent more than lateAfter past due.
func lateShare(ts []opTiming) float64 {
	if len(ts) == 0 {
		return 0
	}
	late := 0
	for _, t := range ts {
		if t.sent-t.due > lateAfter {
			late++
		}
	}
	return float64(late) / float64(len(ts))
}
