package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/codec"
)

// TestIDsPartitionProperties: every id lands in exactly one shard, every
// shard is strictly increasing, and the assignment is stable across calls.
func TestIDsPartitionProperties(t *testing.T) {
	for _, p := range Partitioners() {
		for _, n := range []int{0, 1, 7, 300, 1024} {
			for _, s := range []int{1, 2, 3, 5, 8} {
				ids, err := IDs(p, n, s)
				if err != nil {
					t.Fatalf("%s n=%d s=%d: %v", p, n, s, err)
				}
				if len(ids) != s {
					t.Fatalf("%s n=%d s=%d: got %d shards", p, n, s, len(ids))
				}
				seen := make([]bool, n)
				for si, shardIDs := range ids {
					// Sorted here; the seen check below refuses a repeat.
					if !slices.IsSorted(shardIDs) {
						t.Errorf("%s n=%d s=%d: shard %d ids not sorted", p, n, s, si)
					}
					for _, id := range shardIDs {
						if int(id) >= n {
							t.Fatalf("%s: id %d out of range n=%d", p, id, n)
						}
						if seen[id] {
							t.Errorf("%s n=%d s=%d: id %d in two shards", p, n, s, id)
						}
						seen[id] = true
						if got := p.Assign(id, s); got != si {
							t.Errorf("%s: Assign(%d, %d) = %d but IDs placed it in shard %d", p, id, s, got, si)
						}
					}
				}
				for id, ok := range seen {
					if !ok {
						t.Errorf("%s n=%d s=%d: id %d unassigned", p, n, s, id)
					}
				}
			}
		}
	}
}

// TestRoundRobinBalance: round-robin shard sizes differ by at most one.
func TestRoundRobinBalance(t *testing.T) {
	ids, err := IDs(RoundRobin, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids[0]) != 34 || len(ids[1]) != 33 || len(ids[2]) != 33 {
		t.Fatalf("sizes = %d,%d,%d", len(ids[0]), len(ids[1]), len(ids[2]))
	}
}

// TestHashAssignmentFixed pins the splitmix64 placement: these values are
// part of the on-disk contract (a Go upgrade or refactor that moves them
// would orphan every existing shard set).
func TestHashAssignmentFixed(t *testing.T) {
	want := map[uint32]int{0: 1, 1: 1, 2: 0, 3: 1, 4: 0, 100: 0, 9999: 1}
	for id, shard := range want {
		if got := Hash.Assign(id, 2); got != shard {
			t.Errorf("Hash.Assign(%d, 2) = %d, want %d", id, got, shard)
		}
	}
}

// TestShardIDsMatchesIDs: the single-shard accessor agrees with the full
// partition.
func TestShardIDsMatchesIDs(t *testing.T) {
	all, err := IDs(Hash, 257, 5)
	if err != nil {
		t.Fatal(err)
	}
	for s := range all {
		one, err := ShardIDs(Hash, 257, 5, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(one) != len(all[s]) {
			t.Fatalf("shard %d: %d ids vs %d", s, len(one), len(all[s]))
		}
		for i := range one {
			if one[i] != all[s][i] {
				t.Fatalf("shard %d id %d: %d vs %d", s, i, one[i], all[s][i])
			}
		}
	}
	if _, err := ShardIDs(Hash, 10, 2, 2); err == nil {
		t.Fatal("out-of-range shard index must error")
	}
}

// TestSubset gathers by id, preserving order.
func TestSubset(t *testing.T) {
	data := []string{"a", "b", "c", "d", "e"}
	got := Subset(data, []uint32{1, 3, 4})
	if len(got) != 3 || got[0] != "b" || got[1] != "d" || got[2] != "e" {
		t.Fatalf("Subset = %v", got)
	}
}

// TestInfoValidate covers the sidecar stamp's consistency checks.
func TestInfoValidate(t *testing.T) {
	ok := Info{Set: "x", Partitioner: Hash, Shards: 2, Index: 1}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Info{
		{Set: "x", Partitioner: "nope", Shards: 2, Index: 0},
		{Set: "x", Partitioner: Hash, Shards: 0, Index: 0},
		{Set: "x", Partitioner: Hash, Shards: 2, Index: 2},
		{Set: "x", Partitioner: Hash, Shards: 2, Index: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Info %+v validated", bad)
		}
	}
}

// writeFakeSet lays out a 2-shard fake set on disk — stand-in .psix blobs
// plus consistent serving sidecars — and returns its manifest.
func writeFakeSet(t *testing.T, dir string) *SetManifest {
	t.Helper()
	m := &SetManifest{
		Set: "demo", Kind: "vptree", Dataset: "dna", Seed: 42, N: 10,
		Partitioner: Hash, Generation: 3,
	}
	sizes := []int{6, 4}
	for i, contents := range []string{"shard-zero-bytes", "shard-one-bytes"} {
		sub := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		if err := os.MkdirAll(sub, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, "demo.psix"), []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
		sidecar := fmt.Sprintf(`{"dataset":"dna","seed":42,"n":10,"generation":3,`+
			`"shard":{"set":"demo","partitioner":"hash","shards":2,"index":%d}}`, i)
		if err := os.WriteFile(filepath.Join(sub, "demo.json"), []byte(sidecar), 0o644); err != nil {
			t.Fatal(err)
		}
		crc, err := codec.FileChecksum(filepath.Join(sub, "demo.psix"))
		if err != nil {
			t.Fatal(err)
		}
		m.Shards = append(m.Shards, SetShard{
			Index: i, File: fmt.Sprintf("shard%d/demo.psix", i),
			Manifest: fmt.Sprintf("shard%d/demo.json", i), N: sizes[i], CRC32C: crc,
		})
	}
	return m
}

// TestSetManifestRoundtrip writes, re-reads and verifies a manifest.
func TestSetManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	m := writeFakeSet(t, dir)
	path, err := WriteSetManifest(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ReadSetManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Set != "demo" || back.Generation != 3 || len(back.Shards) != 2 || back.Partitioner != Hash {
		t.Fatalf("roundtrip = %+v", back)
	}
	if err := back.VerifyFiles(dir); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyFilesErrorPaths: the pre-flight must catch every way shipped
// bytes can lie — truncated or corrupted shard files, and sidecars from
// the wrong build (generation skew, wrong corpus, contradictory or missing
// shard stamps).
func TestVerifyFilesErrorPaths(t *testing.T) {
	for name, tc := range map[string]struct {
		sabotage func(t *testing.T, dir string)
		want     string // substring the error must carry
	}{
		"truncated shard file": {
			sabotage: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "shard1", "demo.psix"), []byte("sh"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: "too short",
		},
		"corrupted shard file": {
			// The flipped byte sits in the checksummed region (the last 4
			// bytes are the trailer FileChecksum excludes).
			sabotage: func(t *testing.T, dir string) {
				if err := os.WriteFile(filepath.Join(dir, "shard1", "demo.psix"), []byte("shard-0ne-bytes"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: "crc32c",
		},
		"missing shard file": {
			sabotage: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, "shard0", "demo.psix")); err != nil {
					t.Fatal(err)
				}
			},
			want: "no such file",
		},
		"generation skew": {
			sabotage: func(t *testing.T, dir string) {
				stale := `{"dataset":"dna","seed":42,"n":10,"generation":2,` +
					`"shard":{"set":"demo","partitioner":"hash","shards":2,"index":0}}`
				if err := os.WriteFile(filepath.Join(dir, "shard0", "demo.json"), []byte(stale), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: "generation skew",
		},
		"wrong corpus": {
			sabotage: func(t *testing.T, dir string) {
				wrong := `{"dataset":"dna","seed":99,"n":10,"generation":3,` +
					`"shard":{"set":"demo","partitioner":"hash","shards":2,"index":0}}`
				if err := os.WriteFile(filepath.Join(dir, "shard0", "demo.json"), []byte(wrong), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: "seed",
		},
		"contradictory stamp": {
			sabotage: func(t *testing.T, dir string) {
				swapped := `{"dataset":"dna","seed":42,"n":10,"generation":3,` +
					`"shard":{"set":"demo","partitioner":"hash","shards":2,"index":1}}`
				if err := os.WriteFile(filepath.Join(dir, "shard0", "demo.json"), []byte(swapped), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: "stamp",
		},
		"missing sidecar": {
			sabotage: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(dir, "shard1", "demo.json")); err != nil {
					t.Fatal(err)
				}
			},
			want: "no such file",
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			m := writeFakeSet(t, dir)
			if err := m.VerifyFiles(dir); err != nil {
				t.Fatalf("pristine set failed verification: %v", err)
			}
			tc.sabotage(t, dir)
			err := m.VerifyFiles(dir)
			if err == nil {
				t.Fatal("VerifyFiles accepted the sabotaged set")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the cause (want substring %q)", err, tc.want)
			}
		})
	}
}

// TestSetManifestValidation rejects inconsistent manifests.
func TestSetManifestValidation(t *testing.T) {
	base := func() *SetManifest {
		return &SetManifest{
			Set: "s", Kind: "k", Dataset: "dna", N: 5, Partitioner: Hash,
			Shards: []SetShard{
				{Index: 0, File: "a", Manifest: "a.json", N: 3},
				{Index: 1, File: "b", Manifest: "b.json", N: 2},
			},
		}
	}
	if _, err := WriteSetManifest(t.TempDir(), base()); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	for name, mutate := range map[string]func(*SetManifest){
		"bad-partitioner": func(m *SetManifest) { m.Partitioner = "mod" },
		"size-mismatch":   func(m *SetManifest) { m.Shards[1].N = 9 },
		"index-gap":       func(m *SetManifest) { m.Shards[1].Index = 5 },
		"no-shards":       func(m *SetManifest) { m.Shards = nil },
		"empty-set":       func(m *SetManifest) { m.Set = "" },
	} {
		m := base()
		mutate(m)
		if _, err := WriteSetManifest(t.TempDir(), m); err == nil {
			t.Errorf("%s: invalid manifest accepted", name)
		}
	}
}

// FuzzReadSetManifest feeds arbitrary bytes to ReadSetManifest as a manifest
// file: it must refuse them or return a manifest that passes Validate, and
// never panic.
func FuzzReadSetManifest(f *testing.F) {
	for _, seed := range []string{
		`{"schema":"permsearch-shardset/v1","set":"s","kind":"napp","dataset":"dna","seed":1,"n":5,"partitioner":"hash","generation":3,` +
			`"shards":[{"index":0,"file":"a.psix","manifest":"a.json","n":3,"crc32c":7},{"index":1,"file":"b.psix","manifest":"b.json","n":2}]}`,
		`{"schema":"permsearch-shardset/v1","set":"s","n":0,"partitioner":"round-robin","shards":[null]}`,
		`{"schema":"permsearch-shardset/v1","set":"s","n":-1,"partitioner":"hash","shards":[{"index":0,"file":"a","manifest":"b","n":-1}]}`,
		`{"schema":"permsearch-shardset/v2"}`, `null`, `[]`, `{"shards":{}}`, `{"n":1e99}`, ``,
	} {
		f.Add([]byte(seed))
	}
	path := filepath.Join(f.TempDir(), "set"+SetManifestExt)
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := ReadSetManifest(path)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%q read as a manifest that fails Validate: %v", blob, err)
		}
	})
}
