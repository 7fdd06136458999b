package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	permsearch "repro"
	"repro/internal/dataset"
)

// oracle is the typed, in-process side of a run behind a type-erased face:
// it makes the wire encodings of the run's inputs, computes exact truth with
// the library's sequential scan, and times the in-process layers. It goes
// through the root facade package and the dataset generators only.
type oracle interface {
	numAdds() int
	queryJSON(i int) json.RawMessage
	addJSON(j int) json.RawMessage
	// kthDistances returns, per query, the exact k-th nearest distance over
	// the live set: the base corpus minus deadBase, plus the adds named by
	// liveAdds.
	kthDistances(deadBase map[uint32]bool, liveAdds []int) []float64
	// baseDistance and addDistance recompute the distance a served answer
	// claims, between query i and a base object or an added one.
	baseDistance(id uint32, query int) float64
	addDistance(j, query int) float64
	// ladder times the in-process layers, one span per call.
	ladder(tr *tracer, dir string, kth []float64) (map[string]float64, error)
	// calibrator returns the workload's calibration work (see calib.go).
	calibrator() *calibrator
}

// corpus is the oracle for one object type.
type corpus[T any] struct {
	w       workload
	sp      permsearch.Space[T]
	enc     func(T) json.RawMessage
	ref     func(a, b T) float64 // permbench's own distance, for calibration
	refN    int                  // distance evaluations per core per calibration
	refTime time.Duration        // a calibration's reference duration
	data    []T                  // the served corpus: gen(corpusSeed, n)
	queries []T                  // w.q held-out objects, drawn by the run seed
	adds    []T                  // the rest of the held-out pool, in run-seed order
}

// newOracle generates the workload's corpus and draws the run's queries and
// ingest objects from the held-out pool behind it. The generators are
// prefix-stable, so the first n objects are exactly what the daemon
// regenerates from its manifest.
func newOracle(w workload, seed int64) (oracle, error) {
	switch w.dataset {
	case "sift":
		c := newCorpus[[]float32](w, seed, permsearch.L2{}, dataset.SIFT(w.corpusSeed, w.n+w.pool),
			func(v []float32) json.RawMessage { return mustJSON(v) })
		c.ref, c.refN, c.refTime = refL2, 1700000, 200*time.Millisecond
		return c, nil
	case "dna":
		c := newCorpus[[]byte](w, seed, permsearch.NormalizedLevenshtein{}, dataset.DNA(w.corpusSeed, w.n+w.pool, dataset.DNAOptions{}),
			func(s []byte) json.RawMessage { return mustJSON(string(s)) })
		c.ref, c.refN, c.refTime = refLevenshtein, 92000, 200*time.Millisecond
		return c, nil
	}
	return nil, fmt.Errorf("workload %s: no generator %q", w.name, w.dataset)
}

func newCorpus[T any](w workload, seed int64, sp permsearch.Space[T], all []T, enc func(T) json.RawMessage) *corpus[T] {
	c := &corpus[T]{w: w, sp: sp, enc: enc, data: all[:w.n]}
	held := all[w.n:]
	for i, p := range rand.New(rand.NewSource(seed)).Perm(len(held)) {
		if i < w.q {
			c.queries = append(c.queries, held[p])
		} else {
			c.adds = append(c.adds, held[p])
		}
	}
	return c
}

func mustJSON(v any) json.RawMessage {
	blob, err := json.Marshal(v)
	if err != nil {
		panic(err) // floats and strings always marshal
	}
	return blob
}

func (c *corpus[T]) numAdds() int                    { return len(c.adds) }
func (c *corpus[T]) queryJSON(i int) json.RawMessage { return c.enc(c.queries[i]) }
func (c *corpus[T]) addJSON(j int) json.RawMessage   { return c.enc(c.adds[j]) }

func (c *corpus[T]) baseDistance(id uint32, query int) float64 {
	return c.sp.Distance(c.data[id], c.queries[query])
}

func (c *corpus[T]) addDistance(j, query int) float64 {
	return c.sp.Distance(c.adds[j], c.queries[query])
}

func (c *corpus[T]) kthDistances(deadBase map[uint32]bool, liveAdds []int) []float64 {
	live := c.data
	if len(deadBase) > 0 || len(liveAdds) > 0 {
		live = make([]T, 0, len(c.data)+len(liveAdds))
		for id, obj := range c.data {
			if !deadBase[uint32(id)] {
				live = append(live, obj)
			}
		}
		for _, j := range liveAdds {
			live = append(live, c.adds[j])
		}
	}
	exact := permsearch.SearchBatch[T](permsearch.NewSeqScan(c.sp, live), c.queries, topK)
	kth := make([]float64, len(exact))
	for i, nbs := range exact {
		kth[i] = nbs[len(nbs)-1].Dist
	}
	return kth
}

// calibrator evaluates refN fixed (object, query) pairs on as many cores as
// the workload's load keeps busy. Seven objects in eight come from a window
// that stays in cache and one from anywhere in the corpus: roughly how the
// system itself divides its time between resident state (postings, counters,
// codecs) and fetching candidates.
func (c *corpus[T]) calibrator() *calibrator {
	cores := min(runtime.NumCPU(), c.w.clients)
	if c.w.mutable {
		cores = min(runtime.NumCPU(), cores+1) // the writer
	}
	return &calibrator{ref: c.refTime, cores: cores, work: func(core int) {
		var s float64
		hot := min(256, len(c.data))
		for i := 0; i < c.refN; i++ {
			at := (i*7919 + core*104729) % len(c.data)
			if i%8 != 0 {
				at %= hot
			}
			s += c.ref(c.data[at], c.queries[i%len(c.queries)])
		}
		calSink[core%len(calSink)] = s
	}}
}

// sink and calSink keep the compiler from discarding timed loops whose
// results nothing reads.
var (
	sink    float64
	calSink [64]float64
)

// ladder walks the in-process layers bottom-up on one goroutine: a raw
// distance call, the exact scan, the NAPP index at the served operating
// point (serial, then through the batch engine), and its file format.
func (c *corpus[T]) ladder(tr *tracer, dir string, kth []float64) (map[string]float64, error) {
	m := map[string]float64{}
	root := tr.begin("ladder", -1)
	defer tr.end(root)
	timed := func(name string, f func()) float64 {
		id := tr.begin(name, root)
		t0 := time.Now()
		f()
		d := time.Since(t0).Seconds()
		tr.end(id)
		return d
	}
	nq := len(c.queries)

	const distCalls = 20000
	m["space.distance_ns"] = 1e9 / distCalls * timed("space.distance", func() {
		var s float64
		for i := 0; i < distCalls; i++ {
			s += c.sp.Distance(c.data[(i*7919)%len(c.data)], c.queries[i%nq])
		}
		sink = s
	})

	scan := permsearch.NewSeqScan(c.sp, c.data)
	scanQueries := min(nq, 48)
	var scanS float64
	for _, q := range c.queries[:scanQueries] {
		scanS += timed("seqscan.search", func() { scan.Search(q, topK) })
	}
	m["seqscan.search_us"] = 1e6 * scanS / float64(scanQueries)

	var idx permsearch.Index[T]
	var err error
	m["core.build_s"] = timed("core.build", func() {
		idx, err = permsearch.NewNAPP(c.sp, c.data, permsearch.NAPPOptions{MinShared: c.w.t, Seed: c.w.corpusSeed})
	})
	if err != nil {
		return nil, fmt.Errorf("ladder: building napp: %w", err)
	}
	var searchS, hits float64
	for i, q := range c.queries {
		var nbs []permsearch.Neighbor
		searchS += timed("core.search", func() { nbs = idx.Search(q, topK) })
		for _, nb := range nbs {
			if nb.Dist <= kth[i] {
				hits++
			}
		}
	}
	m["core.search_us"] = 1e6 * searchS / float64(nq)
	m["core.recall_at_10"] = hits / float64(topK*nq)
	m["core.speedup_vs_seqscan"] = m["seqscan.search_us"] / m["core.search_us"]

	batchS := timed("engine.batch", func() { permsearch.SearchBatch(idx, c.queries, topK) })
	m["engine.batch_qps"] = float64(nq) / batchS
	m["engine.batch_speedup"] = searchS / batchS

	path := filepath.Join(dir, "ladder.psix")
	m["persist.save_s"] = timed("persist.save", func() { err = permsearch.SaveIndexFile(path, idx) })
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	m["persist.index_bytes_per_object"] = float64(info.Size()) / float64(len(c.data))
	m["persist.load_s"] = timed("persist.load", func() { _, err = permsearch.LoadIndexFile(path, c.sp, c.data) })
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	return m, nil
}

// request is one search request of the load: its body and the queries it
// carries, by index.
type request struct {
	body    []byte
	queries []int
}

// searchBody is the wire format of POST /v1/indexes/{name}/search.
type searchBody struct {
	Query   json.RawMessage    `json:"query,omitempty"`
	Queries []json.RawMessage  `json:"queries,omitempty"`
	K       int                `json:"k"`
	Params  map[string]float64 `json:"params,omitempty"`
}

// buildRequests cuts the run's queries into requests of w.batch queries
// each, in order; with tunedT set, every second request overrides t.
func buildRequests(w workload, o oracle) []request {
	var reqs []request
	for lo := 0; lo < w.q; lo += w.batch {
		hi := min(lo+w.batch, w.q)
		body := searchBody{K: topK}
		var idxs []int
		for i := lo; i < hi; i++ {
			idxs = append(idxs, i)
		}
		if w.batch == 1 {
			body.Query = o.queryJSON(lo)
		} else {
			for _, i := range idxs {
				body.Queries = append(body.Queries, o.queryJSON(i))
			}
		}
		if w.tunedT > 0 && len(reqs)%2 == 1 {
			body.Params = map[string]float64{"t": float64(w.tunedT)}
		}
		reqs = append(reqs, request{body: mustJSON(body), queries: idxs})
	}
	return reqs
}
