package server

import (
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/lsm"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/wire"
)

// End-to-end tests of the mutable serving tier: add/delete/flush over HTTP
// against a flat-scan oracle, write/reload exclusion, restart recovery, and
// a concurrency hammer. The oracle is the tentpole's acceptance criterion
// pushed through the full HTTP stack: a mutable entry must answer exactly
// like a single flat index over its live set.

const mutN = 60

// mutableFixtureDir writes one mutable index ("sift-mut": exact seqscan
// base over a small SIFT corpus) and returns its base vectors.
func mutableFixtureDir(t *testing.T) (string, [][]float32) {
	t.Helper()
	dir := t.TempDir()
	base := dataset.SIFT(e2eSeed, mutN)
	writeFixture(t, dir, "sift-mut", seqscan.New[[]float32](space.L2{}, base),
		Manifest{Dataset: "sift", Seed: e2eSeed, N: mutN, Mutable: true})
	return dir, base
}

// bootMutable opens dir keeping the Registry accessible so tests can close
// it (restart simulation) or reopen the same directory.
func bootMutable(t *testing.T, dir string) (*Registry, *httptest.Server) {
	t.Helper()
	reg, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(reg, Options{Workers: 4, Timeout: 30 * time.Second}).Handler())
	return reg, ts
}

// liveOracle is the flat-index ground truth: the live set as a plain map,
// searched by building a fresh exact scan over the objects in ascending id
// order (a monotone id translation, so the canonical (dist, id) tie order
// is preserved).
type liveOracle struct {
	objs map[uint32][]float32
}

func newLiveOracle(base [][]float32) *liveOracle {
	o := &liveOracle{objs: make(map[uint32][]float32, len(base))}
	for i, v := range base {
		o.objs[uint32(i)] = v
	}
	return o
}

func (o *liveOracle) add(id uint32, v []float32) { o.objs[id] = v }
func (o *liveOracle) del(id uint32)              { delete(o.objs, id) }

func (o *liveOracle) search(q []float32, k int) []topk.Neighbor {
	ids := slices.Sorted(maps.Keys(o.objs))
	vecs := make([][]float32, len(ids))
	for i, id := range ids {
		vecs[i] = o.objs[id]
	}
	nbs := seqscan.New[[]float32](space.L2{}, vecs).Search(q, k)
	out := make([]topk.Neighbor, len(nbs))
	for i, nb := range nbs {
		out[i] = topk.Neighbor{ID: ids[nb.ID], Dist: nb.Dist}
	}
	return out
}

// checkMutableIdentity asserts served answers equal the oracle's for a
// spread of ks, at a named stage of the mutation script.
func checkMutableIdentity(t *testing.T, ts *httptest.Server, name string, o *liveOracle, queries [][]float32, stage string) {
	t.Helper()
	url := ts.URL + "/v1/indexes/" + name + "/search"
	for _, k := range []int{1, 5, 30} {
		for qi, q := range queries {
			status, raw := postJSON(t, url, map[string]any{"query": q, "k": k})
			if status != http.StatusOK {
				t.Fatalf("%s: query %d k=%d: status %d: %s", stage, qi, k, status, raw)
			}
			var got wire.SearchResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatalf("%s: query %d: %v", stage, qi, err)
			}
			want := o.search(q, k)
			if !reflect.DeepEqual(got.Results, want) {
				t.Fatalf("%s: query %d k=%d:\nserved %v\noracle %v", stage, qi, k, got.Results, want)
			}
		}
	}
}

// mustAdd posts objects and returns the acknowledged ids.
func mustAdd(t *testing.T, ts *httptest.Server, name string, body any) []uint32 {
	t.Helper()
	status, raw := postJSON(t, ts.URL+"/v1/indexes/"+name+"/add", body)
	if status != http.StatusOK {
		t.Fatalf("add: status %d: %s", status, raw)
	}
	var resp struct {
		IDs []uint32 `json:"ids"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.IDs
}

func mustDelete(t *testing.T, ts *httptest.Server, name string, body any) {
	t.Helper()
	status, raw := postJSON(t, ts.URL+"/v1/indexes/"+name+"/delete", body)
	if status != http.StatusOK {
		t.Fatalf("delete: status %d: %s", status, raw)
	}
}

func mustFlush(t *testing.T, ts *httptest.Server, name string) {
	t.Helper()
	status, raw := postJSON(t, ts.URL+"/v1/indexes/"+name+"/flush", nil)
	if status != http.StatusOK {
		t.Fatalf("flush: status %d: %s", status, raw)
	}
}

func TestServedMutableAddDeleteFlushIdentity(t *testing.T) {
	dir, base := mutableFixtureDir(t)
	reg, ts := bootMutable(t, dir)
	defer reg.Close()
	defer ts.Close()

	oracle := newLiveOracle(base)
	queries := dataset.SIFT(e2eSeed+2, 6)
	extra := dataset.SIFT(e2eSeed+3, 30)

	checkMutableIdentity(t, ts, "sift-mut", oracle, queries, "pristine base")

	ids := mustAdd(t, ts, "sift-mut", map[string]any{"object": extra[0]})
	if len(ids) != 1 || ids[0] != mutN {
		t.Fatalf("first add assigned ids %v, want [%d]", ids, mutN)
	}
	oracle.add(ids[0], extra[0])

	batch := extra[1:25]
	ids = mustAdd(t, ts, "sift-mut", map[string]any{"objects": batch})
	if len(ids) != len(batch) {
		t.Fatalf("batch add acked %d ids for %d objects", len(ids), len(batch))
	}
	for i, id := range ids {
		oracle.add(id, batch[i])
	}
	checkMutableIdentity(t, ts, "sift-mut", oracle, queries, "after adds")

	mustDelete(t, ts, "sift-mut", map[string]any{"id": 5})
	oracle.del(5)
	mustDelete(t, ts, "sift-mut", map[string]any{"ids": []uint32{mutN + 1, mutN + 10, 2}})
	for _, id := range []uint32{mutN + 1, mutN + 10, 2} {
		oracle.del(id)
	}
	checkMutableIdentity(t, ts, "sift-mut", oracle, queries, "after deletes")

	mustFlush(t, ts, "sift-mut")
	checkMutableIdentity(t, ts, "sift-mut", oracle, queries, "after flush")

	ids = mustAdd(t, ts, "sift-mut", map[string]any{"objects": extra[25:]})
	for i, id := range ids {
		oracle.add(id, extra[25:][i])
	}
	mustDelete(t, ts, "sift-mut", map[string]any{"id": ids[0]})
	oracle.del(ids[0])
	// Deleting a tier-resident object after the seal exercises the
	// tombstone-masking path end to end.
	mustDelete(t, ts, "sift-mut", map[string]any{"id": mutN + 2})
	oracle.del(mutN + 2)
	checkMutableIdentity(t, ts, "sift-mut", oracle, queries, "post-seal churn")
}

func TestServedWriteEndpointErrors(t *testing.T) {
	dir, base := mutableFixtureDir(t)
	writeFixture(t, dir, "sift-ro", seqscan.New[[]float32](space.L2{}, base),
		Manifest{Dataset: "sift", Seed: e2eSeed, N: mutN})
	reg, ts := bootMutable(t, dir)
	defer reg.Close()
	defer ts.Close()

	vec := dataset.SIFT(e2eSeed+4, 1)[0]
	cases := []struct {
		name string
		url  string
		body any
		want int
	}{
		{"add to immutable index", "/v1/indexes/sift-ro/add", map[string]any{"object": vec}, http.StatusConflict},
		{"add to unknown index", "/v1/indexes/nope/add", map[string]any{"object": vec}, http.StatusNotFound},
		{"add without object", "/v1/indexes/sift-mut/add", map[string]any{}, http.StatusBadRequest},
		{"add with object and objects", "/v1/indexes/sift-mut/add", map[string]any{"object": vec, "objects": [][]float32{vec}}, http.StatusBadRequest},
		{"add undecodable object", "/v1/indexes/sift-mut/add", map[string]any{"object": "not a vector"}, http.StatusBadRequest},
		{"delete unknown id", "/v1/indexes/sift-mut/delete", map[string]any{"id": 99999}, http.StatusBadRequest},
		{"delete duplicate ids", "/v1/indexes/sift-mut/delete", map[string]any{"ids": []uint32{3, 3}}, http.StatusBadRequest},
		{"delete without id", "/v1/indexes/sift-mut/delete", map[string]any{}, http.StatusBadRequest},
		{"flush immutable index", "/v1/indexes/sift-ro/flush", nil, http.StatusConflict},
	}
	for _, tc := range cases {
		status, raw := postJSON(t, ts.URL+tc.url, tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d: %s", tc.name, status, tc.want, raw)
		}
	}

	// A rejected batch must reject atomically: id 3 was named twice above,
	// so it must still be live (a search for its own vector finds it).
	status, raw := postJSON(t, ts.URL+"/v1/indexes/sift-mut/search", map[string]any{"query": base[3], "k": 1})
	if status != http.StatusOK {
		t.Fatalf("search: status %d: %s", status, raw)
	}
	var got wire.SearchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0].ID != 3 || got.Results[0].Dist != 0 {
		t.Fatalf("object 3 not intact after rejected delete batch: %v", got.Results)
	}
}

func TestServedReloadRefusedUntilFlush(t *testing.T) {
	dir, _ := mutableFixtureDir(t)
	reg, ts := bootMutable(t, dir)
	defer reg.Close()
	defer ts.Close()

	vec := dataset.SIFT(e2eSeed+5, 1)[0]
	ids := mustAdd(t, ts, "sift-mut", map[string]any{"object": vec})

	status, raw := postJSON(t, ts.URL+"/v1/indexes/sift-mut/reload", nil)
	if status != http.StatusConflict {
		t.Fatalf("reload with unsealed writes: status %d, want 409: %s", status, raw)
	}
	if !strings.Contains(string(raw), "unsealed") {
		t.Fatalf("reload refusal should say why: %s", raw)
	}

	mustFlush(t, ts, "sift-mut")
	status, raw = postJSON(t, ts.URL+"/v1/indexes/sift-mut/reload", nil)
	if status != http.StatusOK {
		t.Fatalf("reload after flush: status %d: %s", status, raw)
	}

	// The tree is entry state: the acknowledged write must still be served
	// by the new snapshot generation.
	status, raw = postJSON(t, ts.URL+"/v1/indexes/sift-mut/search", map[string]any{"query": vec, "k": 1})
	if status != http.StatusOK {
		t.Fatalf("search after reload: status %d: %s", status, raw)
	}
	var got wire.SearchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0].ID != ids[0] || got.Results[0].Dist != 0 {
		t.Fatalf("added object lost across reload: %v", got.Results)
	}
}

func TestServedMutableSurvivesRestart(t *testing.T) {
	dir, base := mutableFixtureDir(t)
	reg, ts := bootMutable(t, dir)

	extra := dataset.SIFT(e2eSeed+6, 12)
	ids := mustAdd(t, ts, "sift-mut", map[string]any{"objects": extra[:6]})
	mustDelete(t, ts, "sift-mut", map[string]any{"id": ids[2]})
	mustFlush(t, ts, "sift-mut")
	// A second, unflushed round: recovery must replay these from the WAL.
	mustAdd(t, ts, "sift-mut", map[string]any{"objects": extra[6:]})
	mustDelete(t, ts, "sift-mut", map[string]any{"ids": []uint32{7, ids[0]}})

	queries := append(dataset.SIFT(e2eSeed+7, 4), base[7], extra[0], extra[9])
	record := func(ts *httptest.Server) []string {
		var out []string
		for _, q := range queries {
			status, raw := postJSON(t, ts.URL+"/v1/indexes/sift-mut/search", map[string]any{"query": q, "k": 10})
			if status != http.StatusOK {
				t.Fatalf("search: status %d: %s", status, raw)
			}
			out = append(out, string(raw))
		}
		return out
	}
	before := record(ts)

	ts.Close()
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	reg2, ts2 := bootMutable(t, dir)
	defer reg2.Close()
	defer ts2.Close()
	after := record(ts2)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("query %d changed across restart:\nbefore %s\nafter  %s", i, before[i], after[i])
		}
	}
}

// TestServedMutableReloadHammer races adders, flushers, reloaders and
// searchers. Every response must be 200 or 409 (never a hang, 5xx, or torn
// state), and every 200-acknowledged add must be searchable afterwards.
func TestServedMutableReloadHammer(t *testing.T) {
	dir, _ := mutableFixtureDir(t)
	reg, ts := bootMutable(t, dir)
	defer reg.Close()
	defer ts.Close()

	// Each acked vector is unique and far from the base corpus (base
	// coordinates live in [0, 255]), so its self-query at k=1 must return
	// exactly its own id at distance 0.
	farVec := func(n int) []float32 {
		v := make([]float32, 128)
		v[0] = float32(10000 + n)
		return v
	}

	var mu sync.Mutex
	acked := make(map[uint32][]float32)

	var adders, chaosG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		adders.Add(1)
		go func(w int) {
			defer adders.Done()
			for i := 0; i < 30; i++ {
				v := farVec(w*1000 + i)
				status, raw := postJSON(t, ts.URL+"/v1/indexes/sift-mut/add", map[string]any{"object": v})
				switch status {
				case http.StatusOK:
					var resp struct {
						IDs []uint32 `json:"ids"`
					}
					if err := json.Unmarshal(raw, &resp); err != nil || len(resp.IDs) != 1 {
						t.Errorf("adder %d: bad ack %s: %v", w, raw, err)
						return
					}
					mu.Lock()
					acked[resp.IDs[0]] = v
					mu.Unlock()
				case http.StatusConflict:
					// Reload in flight; the write was refused whole.
				default:
					t.Errorf("adder %d: status %d: %s", w, status, raw)
					return
				}
			}
		}(w)
	}
	chaos := func(path string) {
		defer chaosG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			status, raw := postJSON(t, ts.URL+path, nil)
			if status != http.StatusOK && status != http.StatusConflict {
				t.Errorf("%s: status %d: %s", path, status, raw)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	chaosG.Add(2)
	go chaos("/v1/indexes/sift-mut/flush")
	go chaos("/v1/indexes/sift-mut/reload")
	chaosG.Add(1)
	go func() {
		defer chaosG.Done()
		q := farVec(500)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			status, raw := postJSON(t, ts.URL+"/v1/indexes/sift-mut/search", map[string]any{"query": q, "k": 5})
			if status != http.StatusOK {
				t.Errorf("searcher: status %d: %s", status, raw)
				return
			}
		}
	}()

	// Adders run a fixed script; the chaos loops run until they finish.
	adders.Wait()
	close(stop)
	chaosG.Wait()

	mu.Lock()
	final := maps.Clone(acked)
	mu.Unlock()
	if len(final) == 0 {
		t.Fatal("no adds were acknowledged during the hammer")
	}
	for id, v := range final {
		status, raw := postJSON(t, ts.URL+"/v1/indexes/sift-mut/search", map[string]any{"query": v, "k": 1})
		if status != http.StatusOK {
			t.Fatalf("post-hammer search: status %d: %s", status, raw)
		}
		var got wire.SearchResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Results) != 1 || got.Results[0].ID != id || got.Results[0].Dist != 0 {
			t.Fatalf("acked add %d not served: %v", id, got.Results)
		}
	}
}

func TestServedStatuszReportsMutableTiers(t *testing.T) {
	dir, _ := mutableFixtureDir(t)
	reg, ts := bootMutable(t, dir)
	defer reg.Close()
	defer ts.Close()

	extra := dataset.SIFT(e2eSeed+8, 5)
	mustAdd(t, ts, "sift-mut", map[string]any{"objects": extra[:3]})
	mustFlush(t, ts, "sift-mut")
	mustAdd(t, ts, "sift-mut", map[string]any{"objects": extra[3:]})

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status struct {
		Indexes []struct {
			Name    string      `json:"name"`
			Mutable *lsm.Status `json:"mutable"`
		} `json:"indexes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	var row *lsm.Status
	for _, r := range status.Indexes {
		if r.Name == "sift-mut" {
			row = r.Mutable
		}
	}
	if row == nil {
		t.Fatalf("statusz has no mutable section for sift-mut: %+v", status.Indexes)
	}
	if row.Live != mutN+5 {
		t.Errorf("statusz live = %d, want %d", row.Live, mutN+5)
	}
	if len(row.Tiers) != 1 || row.Tiers[0].N != 3 {
		t.Errorf("statusz tiers = %+v, want one tier of 3", row.Tiers)
	}
	if row.MemtableLive != 2 || row.WalRecords != 2 {
		t.Errorf("statusz memtable = %d live / %d wal records, want 2/2", row.MemtableLive, row.WalRecords)
	}
}

// TestStatusz: /statusz carries what no other page does — one row per
// mutable entry with its tier status — and nothing else. Counters are on
// /metrics, an immutable entry's snapshot metadata on /v1/indexes.
func TestStatusz(t *testing.T) {
	dir, base := mutableFixtureDir(t)
	writeFixture(t, dir, "sift-ro", seqscan.New[[]float32](space.L2{}, base),
		Manifest{Dataset: "sift", Seed: e2eSeed, N: mutN})
	reg, ts := bootMutable(t, dir)
	defer reg.Close()
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page map[string][]map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	rows, ok := page["indexes"]
	if len(page) != 1 || !ok || len(rows) != 1 {
		t.Fatalf("statusz = %v, want only an \"indexes\" list with the one mutable entry", page)
	}
	if len(rows[0]) != 2 || string(rows[0]["name"]) != `"sift-mut"` || rows[0]["mutable"] == nil {
		t.Fatalf("statusz row = %v, want exactly name=sift-mut and its mutable status", rows[0])
	}
}

// TestKCappedOnEmptyLiveSet: once every object of a mutable entry is
// deleted, k is capped at 1 rather than not at all — a client's k must not
// reach the components' top-k queues, which pre-size k slots.
func TestKCappedOnEmptyLiveSet(t *testing.T) {
	dir, _ := mutableFixtureDir(t)
	reg, ts := bootMutable(t, dir)
	defer reg.Close()
	defer ts.Close()

	ids := make([]uint32, mutN)
	for i := range ids {
		ids[i] = uint32(i)
	}
	if status, raw := postJSON(t, ts.URL+"/v1/indexes/sift-mut/delete", map[string]any{"ids": ids}); status != http.StatusOK {
		t.Fatalf("delete all: status %d: %s", status, raw)
	}
	q := dataset.SIFT(e2eSeed+1, 1)[0]
	status, raw := postJSON(t, ts.URL+"/v1/indexes/sift-mut/search", map[string]any{"query": q, "k": 1 << 45})
	if status != http.StatusOK {
		t.Fatalf("search over an empty live set: status %d: %s", status, raw)
	}
	var got wire.SearchResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Results == nil || len(got.Results) != 0 {
		t.Errorf("results = %v, want []", got.Results)
	}
	if got.K > 1 {
		t.Errorf("k = %d, want it capped at max(live, 1) = 1", got.K)
	}
}
