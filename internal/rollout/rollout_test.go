package rollout_test

// End-to-end tests of the rollout control plane: real shard sets on disk
// (index files + sidecars + set manifest), a fleet of serving daemons with
// per-replica directories, a router for the golden gate, and a Driver
// shipping generations through — converging on success, rolling back on a
// recall regression, refusing corrupt bytes and generation skew, and
// skipping (only) dead replicas.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/persist"
	"repro/internal/rollout"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/space"
	"repro/internal/vptree"
)

const (
	roSet    = "dna"
	roN      = 120
	roShards = 2
	roSeed   = 7
)

// buildGen writes a complete shard set (index files, sidecars, set
// manifest) into dir: generation gen of the set, built over corpus
// gen(corpusSeed, roN). A different corpusSeed builds a set whose answers
// have nothing in common with the original — the "regressed rebuild" the
// golden gate must catch.
func buildGen(t *testing.T, dir string, gen int64, corpusSeed int64) (manifestPath string) {
	t.Helper()
	db := dataset.DNA(corpusSeed, roN, dataset.DNAOptions{})
	ids, err := shard.IDs(shard.Hash, len(db), roShards)
	if err != nil {
		t.Fatal(err)
	}
	m := &shard.SetManifest{
		Set: roSet, Dataset: "dna", Seed: corpusSeed, N: roN,
		Partitioner: shard.Hash, Generation: gen,
	}
	for s := range ids {
		tree, err := vptree.New[[]byte](space.NormalizedLevenshtein{}, shard.Subset(db, ids[s]), vptree.Options{Seed: roSeed})
		if err != nil {
			t.Fatal(err)
		}
		if m.Kind == "" {
			m.Kind = tree.Name()
		}
		sub := filepath.Join(dir, fmt.Sprintf("shard%d", s))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		file := filepath.Join(sub, roSet+persist.Ext)
		if err := persist.SaveFile(file, tree); err != nil {
			t.Fatal(err)
		}
		side := server.Manifest{
			Dataset: "dna", Seed: corpusSeed, N: roN, Generation: gen,
			Shard: &shard.Info{Set: roSet, Partitioner: shard.Hash, Shards: roShards, Index: s},
		}
		blob, err := json.Marshal(side)
		if err != nil {
			t.Fatal(err)
		}
		sidePath := filepath.Join(sub, roSet+".json")
		if err := os.WriteFile(sidePath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		crc, err := codec.FileChecksum(file)
		if err != nil {
			t.Fatal(err)
		}
		m.Shards = append(m.Shards, shard.SetShard{
			Index: s, File: fmt.Sprintf("shard%d/%s%s", s, roSet, persist.Ext),
			Manifest: fmt.Sprintf("shard%d/%s.json", s, roSet), N: len(ids[s]), CRC32C: crc,
		})
	}
	path, err := shard.WriteSetManifest(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func copyInto(t *testing.T, dst, src string) {
	t.Helper()
	blob, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fleet is a booted shards × replicas serving fleet plus the topology and
// router fronting it.
type fleet struct {
	topo    *rollout.Topology
	servers [][]*httptest.Server
	router  *httptest.Server
}

// bootFleet gives every replica its own serving directory seeded from the
// set at srcDir, serves each with a real daemon, and mounts a router over
// the lot.
func bootFleet(t *testing.T, srcDir string, replicas int) *fleet {
	t.Helper()
	f := &fleet{topo: &rollout.Topology{Schema: rollout.TopologySchema}}
	for s := 0; s < roShards; s++ {
		var group []rollout.Replica
		var servers []*httptest.Server
		for r := 0; r < replicas; r++ {
			dir := t.TempDir()
			copyInto(t, filepath.Join(dir, roSet+persist.Ext), filepath.Join(srcDir, fmt.Sprintf("shard%d", s), roSet+persist.Ext))
			copyInto(t, filepath.Join(dir, roSet+".json"), filepath.Join(srcDir, fmt.Sprintf("shard%d", s), roSet+".json"))
			reg, err := server.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(server.New(reg, server.Options{Workers: 2, Timeout: 30 * time.Second}).Handler())
			t.Cleanup(ts.Close)
			group = append(group, rollout.Replica{URL: ts.URL, Dir: dir})
			servers = append(servers, ts)
		}
		f.topo.Shards = append(f.topo.Shards, group)
		f.servers = append(f.servers, servers)
	}
	rt, err := router.New(router.Options{Replicas: f.topo.URLs(), ShardTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	f.router = httptest.NewServer(rt.Handler())
	t.Cleanup(f.router.Close)
	return f
}

// generationOf asks one replica which generation of the set it serves.
func generationOf(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/indexes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Indexes []struct {
			Name       string `json:"name"`
			Generation int64  `json:"generation"`
		} `json:"indexes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	for _, row := range out.Indexes {
		if row.Name == roSet {
			return row.Generation
		}
	}
	t.Fatalf("replica %s does not serve %q", base, roSet)
	return 0
}

// driverFor builds a Driver with the golden gate wired through the fleet's
// router, with CI-friendly timeouts.
func driverFor(t *testing.T, f *fleet, goldenSeed int64) *rollout.Driver {
	t.Helper()
	queries, err := rollout.GoldenQueries("dna", goldenSeed, 8)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rollout.New(rollout.Options{
		Topology:        f.topo,
		RouterURL:       f.router.URL,
		GoldenQueries:   queries,
		GoldenK:         5,
		MinRecall:       0.95,
		Timeout:         5 * time.Second,
		ConvergeTimeout: 10 * time.Second,
		PollInterval:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRolloutConverges: shipping a clean rebuild of the same corpus rolls
// every replica to the new generation, passes the golden gate (identical
// answers -> recall 1), and does not roll back.
func TestRolloutConverges(t *testing.T) {
	gen1 := t.TempDir()
	buildGen(t, gen1, 1, roSeed)
	f := bootFleet(t, gen1, 2)
	gen2 := t.TempDir()
	manifest2 := buildGen(t, gen2, 2, roSeed)

	rep, err := driverFor(t, f, roSeed).Rollout(manifest2)
	if err != nil {
		t.Fatalf("rollout failed: %v (report %+v)", err, rep)
	}
	if rep.RolledBack || len(rep.Updated) != roShards*2 || len(rep.Skipped) != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Recall < 0.999 {
		t.Errorf("identical rebuild scored recall %v", rep.Recall)
	}
	for _, group := range f.servers {
		for _, ts := range group {
			if gen := generationOf(t, ts.URL); gen != 2 {
				t.Errorf("replica %s serves generation %d after rollout, want 2", ts.URL, gen)
			}
		}
	}
	checkShippedFiles(t, f)
}

// TestRolloutRollsBackOnRegression is the acceptance bar: a generation
// built over the *wrong corpus* verifies byte-clean (the bytes are exactly
// what its manifest promises) but answers garbage — only the golden gate
// can catch it, and it must restore the fleet to the old generation.
func TestRolloutRollsBackOnRegression(t *testing.T) {
	gen1 := t.TempDir()
	buildGen(t, gen1, 1, roSeed)
	f := bootFleet(t, gen1, 2)
	gen2 := t.TempDir()
	manifest2 := buildGen(t, gen2, 2, 99) // regressed: different corpus

	// Golden queries come from the shipped manifest's corpus identity,
	// exactly as permctl derives them.
	rep, err := driverFor(t, f, 99).Rollout(manifest2)
	if err == nil {
		t.Fatalf("regressed rollout reported success: %+v", rep)
	}
	if !rep.RolledBack {
		t.Fatalf("regressed rollout did not roll back: %v (report %+v)", err, rep)
	}
	if !strings.Contains(rep.Reason, "recall") {
		t.Errorf("rollback reason %q does not name the recall gate", rep.Reason)
	}
	if rep.Recall >= 0.95 {
		t.Errorf("wrong-corpus generation scored recall %v", rep.Recall)
	}
	for _, group := range f.servers {
		for _, ts := range group {
			if gen := generationOf(t, ts.URL); gen != 1 {
				t.Errorf("replica %s serves generation %d after rollback, want 1", ts.URL, gen)
			}
		}
	}
	checkShippedFiles(t, f)
}

// TestRolloutPreflight: corrupt bytes and generation skew are refused
// before anything ships — the fleet never sees a reload.
func TestRolloutPreflight(t *testing.T) {
	gen1 := t.TempDir()
	buildGen(t, gen1, 1, roSeed)
	f := bootFleet(t, gen1, 1)

	t.Run("corrupt shard file", func(t *testing.T) {
		gen2 := t.TempDir()
		manifest2 := buildGen(t, gen2, 2, roSeed)
		blob, err := os.ReadFile(filepath.Join(gen2, "shard0", roSet+persist.Ext))
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/2] ^= 0xFF
		if err := os.WriteFile(filepath.Join(gen2, "shard0", roSet+persist.Ext), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := driverFor(t, f, roSeed).Rollout(manifest2); err == nil || !strings.Contains(err.Error(), "pre-flight") {
			t.Fatalf("corrupt shard file not refused in pre-flight: %v", err)
		}
	})

	t.Run("generation not newer", func(t *testing.T) {
		same := t.TempDir()
		manifest := buildGen(t, same, 1, roSeed) // fleet already serves generation 1
		_, err := driverFor(t, f, roSeed).Rollout(manifest)
		if err == nil || !strings.Contains(err.Error(), "generation skew") {
			t.Fatalf("non-newer generation not refused: %v", err)
		}
	})

	// Neither attempt may have touched the fleet.
	for _, group := range f.servers {
		for _, ts := range group {
			if gen := generationOf(t, ts.URL); gen != 1 {
				t.Errorf("replica %s serves generation %d after refused rollouts, want 1", ts.URL, gen)
			}
		}
	}
}

// TestRolloutSkipsDeadReplica: a dead replica is skipped with a warning
// (it catches up when it returns); a whole dead shard group aborts.
func TestRolloutSkipsDeadReplica(t *testing.T) {
	gen1 := t.TempDir()
	buildGen(t, gen1, 1, roSeed)
	f := bootFleet(t, gen1, 2)
	gen2 := t.TempDir()
	manifest2 := buildGen(t, gen2, 2, roSeed)

	dead := f.servers[0][1]
	dead.Close()

	rep, err := driverFor(t, f, roSeed).Rollout(manifest2)
	if err != nil {
		t.Fatalf("rollout with one dead replica failed: %v (report %+v)", err, rep)
	}
	if len(rep.Skipped) != 1 || rep.Skipped[0] != dead.URL {
		t.Fatalf("skipped = %v, want the dead replica %s", rep.Skipped, dead.URL)
	}
	if len(rep.Updated) != roShards*2-1 {
		t.Fatalf("updated = %v", rep.Updated)
	}
	for _, group := range f.servers {
		for _, ts := range group {
			if ts == dead {
				continue
			}
			if gen := generationOf(t, ts.URL); gen != 2 {
				t.Errorf("replica %s serves generation %d, want 2", ts.URL, gen)
			}
		}
	}

	// Kill shard 1 entirely: no safe way to roll it, so the driver aborts.
	f.servers[1][0].Close()
	f.servers[1][1].Close()
	gen3 := t.TempDir()
	manifest3 := buildGen(t, gen3, 3, roSeed)
	if _, err := driverFor(t, f, roSeed).Rollout(manifest3); err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("whole dead shard not refused: %v", err)
	}
}

// TestRolloutEvents: the driver narrates a roll as structured per-step
// events — one update per reachable replica between survey and
// convergence on success, and a rollback/restore trail on regression.
func TestRolloutEvents(t *testing.T) {
	gen1 := t.TempDir()
	buildGen(t, gen1, 1, roSeed)
	f := bootFleet(t, gen1, 2)

	newDriver := func(goldenSeed int64, sink *[]rollout.Event) *rollout.Driver {
		queries, err := rollout.GoldenQueries("dna", goldenSeed, 8)
		if err != nil {
			t.Fatal(err)
		}
		d, err := rollout.New(rollout.Options{
			Topology:        f.topo,
			RouterURL:       f.router.URL,
			GoldenQueries:   queries,
			GoldenK:         5,
			Timeout:         5 * time.Second,
			ConvergeTimeout: 10 * time.Second,
			PollInterval:    20 * time.Millisecond,
			OnEvent:         func(e rollout.Event) { *sink = append(*sink, e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	steps := func(events []rollout.Event) []string {
		var out []string
		for _, e := range events {
			out = append(out, e.Step)
		}
		return out
	}

	var events []rollout.Event
	manifest2 := buildGen(t, t.TempDir(), 2, roSeed)
	if _, err := newDriver(roSeed, &events).Rollout(manifest2); err != nil {
		t.Fatalf("rollout failed: %v", err)
	}
	want := []string{"preflight", "survey", "baseline",
		"update", "update", "update", "update", "converged", "verify", "done"}
	if got := steps(events); !slicesEqual(got, want) {
		t.Fatalf("event steps = %v, want %v", got, want)
	}
	for _, e := range events {
		if e.Set != roSet || e.Generation == 0 {
			t.Errorf("event %+v missing set/generation", e)
		}
		if e.Step == "update" && (e.URL == "" || e.Shard < 0 || e.Replica < 0 ||
			!strings.Contains(e.Detail, "generation 1 -> 2")) {
			t.Errorf("update event not attributed to a replica: %+v", e)
		}
		if e.Step == "verify" && e.Recall < 0.999 {
			t.Errorf("verify event recall = %v, want ~1 for an identical rebuild", e.Recall)
		}
	}

	// A regression narrates the rollback: verify, then rollback with the
	// reason, then one restore per updated replica.
	events = nil
	manifest3 := buildGen(t, t.TempDir(), 3, 99) // wrong corpus
	if _, err := newDriver(99, &events).Rollout(manifest3); err == nil {
		t.Fatal("regressed rollout reported success")
	}
	got := steps(events)
	want = []string{"preflight", "survey", "baseline",
		"update", "update", "update", "update", "converged", "verify",
		"rollback", "restore", "restore", "restore", "restore"}
	if !slicesEqual(got, want) {
		t.Fatalf("regression event steps = %v, want %v", got, want)
	}
	rb := events[len(want)-5]
	if !strings.Contains(rb.Err, "recall") {
		t.Errorf("rollback event error %q does not name the recall gate", rb.Err)
	}
}

// checkShippedFiles asserts what the driver leaves in every replica's serving
// dir after shipping (or restoring) a generation: the live pair and its
// backup are world-readable like the files shardsplit writes — a daemon under
// another uid must be able to reload them — and no temp file is left behind.
func checkShippedFiles(t *testing.T, f *fleet) {
	t.Helper()
	for _, group := range f.topo.Shards {
		for _, rep := range group {
			for _, name := range []string{roSet + persist.Ext, roSet + ".json", roSet + persist.Ext + ".prev", roSet + ".json.prev"} {
				fi, err := os.Stat(filepath.Join(rep.Dir, name))
				if err != nil {
					t.Errorf("replica %s: %v", rep.URL, err)
				} else if fi.Mode().Perm() != 0o644 || fi.Size() == 0 {
					t.Errorf("replica %s: %s has mode %v, %d bytes; want 0644, non-empty", rep.URL, name, fi.Mode().Perm(), fi.Size())
				}
			}
			if tmp, _ := filepath.Glob(filepath.Join(rep.Dir, "*.tmp*")); len(tmp) != 0 {
				t.Errorf("replica %s: temp files left behind: %v", rep.URL, tmp)
			}
		}
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTopologyRoundtrip: a topology file as an operator writes it reads back
// whole, plus validation rejections.
func TestTopologyRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.json")
	const file = `{
  "schema": "permsearch-topology/v1",
  "shards": [
    [{"url": "http://a:1", "dir": "/srv/a"}, {"url": "http://b:1"}],
    [{"url": "http://c:1"}]
  ]
}`
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := rollout.ReadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != rollout.TopologySchema || len(back.Shards) != 2 || back.Shards[0][0].Dir != "/srv/a" {
		t.Fatalf("roundtrip = %+v", back)
	}
	urls := back.URLs()
	if len(urls) != 2 || len(urls[0]) != 2 || urls[1][0] != "http://c:1" {
		t.Fatalf("URLs = %v", urls)
	}

	for name, bad := range map[string]*rollout.Topology{
		"no shards":     {Schema: rollout.TopologySchema},
		"empty group":   {Schema: rollout.TopologySchema, Shards: [][]rollout.Replica{{}}},
		"missing url":   {Schema: rollout.TopologySchema, Shards: [][]rollout.Replica{{{Dir: "/x"}}}},
		"duplicate url": {Schema: rollout.TopologySchema, Shards: [][]rollout.Replica{{{URL: "http://a:1"}, {URL: "http://a:1"}}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: invalid topology accepted", name)
		}
	}
	if _, err := rollout.ReadTopology(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Error("reading a missing topology file succeeded")
	}
}

// TestGoldenQueries: deterministic, byte-stable, generated for every data
// set the catalog resolves in a form that family's Decode accepts, and
// refusing names it does not resolve.
func TestGoldenQueries(t *testing.T) {
	a, err := rollout.GoldenQueries("dna", roSeed, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rollout.GoldenQueries("dna", roSeed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 4 {
		t.Fatalf("got %d queries", len(a))
	}
	for i := range a {
		if string(a[i]) != string(b[i]) {
			t.Fatalf("query %d not deterministic: %s vs %s", i, a[i], b[i])
		}
	}
	var s string
	if err := json.Unmarshal(a[0], &s); err != nil || s == "" {
		t.Fatalf("dna query %s is not a JSON string: %v", a[0], err)
	}
	// The probes' bytes, captured before GoldenQueries moved onto the
	// data-set table: the seed offset and the wire form did not move.
	wantDNA := []string{
		`"GCTGCTCACCAACCTGCTGCTGCTTGCTGCTGCTGCTGCT"`,
		`"AGAGAGAGAGAGAGAGAGA"`,
		`"TGGTTGCTGCTGCTGGTTGGTTGCTGCTGCTGCTGCTGCTT"`,
	}
	for i, want := range wantDNA {
		if string(a[i]) != want {
			t.Errorf("dna probe %d = %s, want %s", i, a[i], want)
		}
	}
	for ds, want := range map[string]string{
		"sift":   "d4970a3db6d85ce38540ac786702b2ff9637ac415e380bfc9b35b834017fdbe9",
		"cophir": "c713bcf38afa2441c7f2d47b238a230ba529eb60f9ed81a1ba2e936eb2219911",
	} {
		v, err := rollout.GoldenQueries(ds, roSeed, 3)
		if err != nil || len(v) != 3 {
			t.Fatalf("%s queries: %d, %v", ds, len(v), err)
		}
		h := sha256.New()
		for _, q := range v {
			h.Write(q)
			h.Write([]byte{'\n'})
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%s probes hash to %s, want %s", ds, got, want)
		}
	}
	for _, ds := range []string{"imagenet", "wiki-sparse", "wiki-8"} {
		probes, err := rollout.GoldenQueries(ds, roSeed, 2)
		if err != nil || len(probes) != 2 {
			t.Fatalf("%s queries: %d, %v", ds, len(probes), err)
		}
		fam, err := dataset.Lookup(ds)
		if err != nil {
			t.Fatal(err)
		}
		switch f := fam.(type) {
		case *dataset.Family[space.Signature]:
			decodeProbes(t, f, probes)
		case *dataset.Family[space.SparseVector]:
			decodeProbes(t, f, probes)
		case *dataset.Family[space.Histogram]:
			decodeProbes(t, f, probes)
		default:
			t.Fatalf("%s: unexpected family type %T", ds, fam)
		}
	}
	for _, ds := range []string{"nope", "wiki-x", "wiki-1"} {
		if _, err := rollout.GoldenQueries(ds, roSeed, 2); err == nil {
			t.Errorf("unknown dataset %q accepted", ds)
		}
	}
	if _, err := rollout.GoldenQueries("dna", roSeed, 0); err == nil {
		t.Error("zero query count accepted")
	}
}

// decodeProbes requires every probe to be an object the family's own Decode
// accepts against a member of the corpus the probes are for.
func decodeProbes[T any](t *testing.T, f *dataset.Family[T], probes []json.RawMessage) {
	t.Helper()
	like := f.Gen(roSeed, 1)[0]
	for i, p := range probes {
		if _, err := f.Decode(p, like); err != nil {
			t.Errorf("%s probe %d does not decode: %v", f.Name(), i, err)
		}
	}
}
