package lsm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/index"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vfs"
)

// fuzzFiles are the three files of the seed tree — the three parsers of
// recovery — that a fuzz input can stand in for.
var fuzzFiles = []string{"wal-000002.log", "000001.seg", manifestName}

const fuzzBaseN = 6

// fuzzOptions decodes like a serving family does: an object of the wrong
// shape is refused, never handed to the distance function.
func fuzzOptions(dir string) Options[[]float32] {
	return Options[[]float32]{
		Dir: dir, Space: space.L2{}, BaseN: fuzzBaseN, NoFsync: true,
		Decode: func(raw []byte) ([]float32, error) {
			if len(raw) != 4*testDim {
				return nil, fmt.Errorf("vector payload of %d bytes, want %d", len(raw), 4*testDim)
			}
			return decVec(raw)
		},
	}
}

// fuzzSeedTree writes a real tree — one sealed tier, a WAL holding adds, a
// base delete and a tier delete, the manifest — and returns its files.
func fuzzSeedTree(tb testing.TB) map[string][]byte {
	tb.Helper()
	dir := filepath.Join(tb.TempDir(), "tree")
	tree, err := Open(fuzzOptions(dir))
	if err != nil {
		tb.Fatal(err)
	}
	vecs := randVecs(51, 5)
	for i, v := range vecs {
		if _, err := tree.Add(encVec(v)); err != nil {
			tb.Fatal(err)
		}
		if i == 2 {
			if _, err := tree.Flush(); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := tree.DeleteBatch([]uint32{1, fuzzBaseN}); err != nil {
		tb.Fatal(err)
	}
	if err := tree.Close(); err != nil {
		tb.Fatal(err)
	}
	files := make(map[string][]byte, len(fuzzFiles))
	for _, name := range fuzzFiles {
		if files[name], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			tb.Fatal(err)
		}
	}
	return files
}

// hostileCountSegment is a checksum-valid segment whose header claims 2^40
// objects over an empty payload: the count must be refused, not allocated.
func hostileCountSegment(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	cw := codec.NewWriter(&buf, codec.KindLSMSegment, space.L2{}.Name(), 1<<40)
	cw.U64(1)
	cw.U32s(nil)
	cw.U32s(nil)
	if err := cw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// segmentOf is the checksum-valid segment of tier seq holding tombs and ids,
// each object the base point of that id when the id is a base id and one of
// the seed tree's added vectors otherwise.
func segmentOf(tb testing.TB, seq uint64, tombs []uint32, ids ...uint32) []byte {
	tb.Helper()
	base, added := randVecs(1, fuzzBaseN), randVecs(51, len(ids))
	tr := &tier[[]float32]{seq: seq, tombs: tombs}
	for i, id := range ids {
		v := added[i]
		if id < fuzzBaseN {
			v = base[id]
		}
		tr.add(id, v, encVec(v))
	}
	dir := tb.TempDir()
	if err := writeSegment(vfs.OS{}, dir, space.L2{}.Name(), tr); err != nil {
		tb.Fatal(err)
	}
	blob, err := os.ReadFile(segPath(dir, seq))
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// collidingSegments rewrite the seed tree's segment (ids 6, 7, 8 over a base
// of fuzzBaseN = 6, manifest NextID 9) so that an id collides with one the
// tree holds elsewhere: a base object, the segment itself, and the id the
// WAL's first add takes.
func collidingSegments(tb testing.TB) map[string][]byte {
	return map[string][]byte{
		"base collision": segmentOf(tb, 1, nil, 2, 7, 8),
		"duplicate id":   segmentOf(tb, 1, nil, 6, 7, 7),
		"id at NextID":   segmentOf(tb, 1, nil, 6, 7, 9),
	}
}

// repeatedID reports an id that ns holds twice.
func repeatedID(ns []topk.Neighbor) (uint32, bool) {
	seen := make(map[uint32]bool, len(ns))
	for _, n := range ns {
		if seen[n.ID] {
			return n.ID, true
		}
		seen[n.ID] = true
	}
	return 0, false
}

// wrappingWAL is the seed tree's WAL plus one checksum-valid add record with
// id 2^32-1, past the last assignable id: replaying it would wrap the id
// counter to 0.
func wrappingWAL(tb testing.TB, wal []byte) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "wal.log")
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		tb.Fatal(err)
	}
	w, _, err := openWAL(vfs.OS{}, path, true)
	if err != nil {
		tb.Fatal(err)
	}
	if err := w.append(walOpAdd, math.MaxUint32, encVec(randVecs(52, 1)[0])); err != nil {
		tb.Fatal(err)
	}
	if err := w.close(); err != nil {
		tb.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// FuzzOpen replaces one file of a real tree directory with arbitrary bytes.
// Recovery either refuses the directory or returns a tree that can be
// searched, inspected and closed and that answers no id twice; either way it
// never panics, and what it allocates is bounded by the bytes it was given,
// not by a count they claim.
func FuzzOpen(f *testing.F) {
	seed := fuzzSeedTree(f)
	for which, name := range fuzzFiles {
		blob := seed[name]
		f.Add(uint8(which), blob)
		f.Add(uint8(which), blob[:len(blob)/2])
		flip := bytes.Clone(blob)
		flip[len(flip)/3] ^= 0x10
		f.Add(uint8(which), flip)
		f.Add(uint8(which), []byte(nil))
	}
	f.Add(uint8(0), wrappingWAL(f, seed[fuzzFiles[0]]))
	f.Add(uint8(1), hostileCountSegment(f))
	f.Add(uint8(2), bytes.ReplaceAll(seed[manifestName], []byte(`"n": 3`), []byte(`"n": -1`)))
	f.Add(uint8(2), bytes.ReplaceAll(seed[manifestName], []byte(`"next_id": 9`), []byte(`"next_id": 4294967295`)))
	for _, seg := range collidingSegments(f) {
		f.Add(uint8(1), seg)
	}

	base := seqscan.New[[]float32](space.L2{}, randVecs(1, fuzzBaseN))
	query := randVecs(99, 1)[0]
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		dir := t.TempDir()
		for name, blob := range seed {
			if name == fuzzFiles[int(which)%len(fuzzFiles)] {
				blob = data
			}
			if err := os.WriteFile(filepath.Join(dir, name), blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if tree, err := Open(fuzzOptions(dir)); err == nil {
			for _, k := range []int{1, 3, 100} {
				got, err := tree.SearchAppend(nil, base, query, index.Options{K: k})
				if err != nil {
					t.Errorf("search k=%d on a recovered tree: %v", k, err)
				}
				if id, ok := repeatedID(got); ok {
					t.Errorf("search k=%d on a recovered tree answers id %d twice: %v", k, id, got)
				}
			}
			tree.Status()
			tree.Close()
		}
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4<<20+512*len(data)); grew > limit {
			t.Fatalf("recovering %d fuzzed bytes allocated %d bytes (limit %d)", len(data), grew, limit)
		}
	})
}

// TestReadSegmentHostileCount pins the crash FuzzOpen's seed found: the
// header's object count sized the blob table before anything validated it.
func TestReadSegmentHostileCount(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir, 1), hostileCountSegment(t), 0o644); err != nil {
		t.Fatal(err)
	}
	man := &manifest{Space: space.L2{}.Name(), BaseN: fuzzBaseN, NextID: fuzzBaseN}
	if _, err := readSegment(vfs.OS{}, dir, man, 1, fuzzOptions(dir).Decode); !isCorrupt(err) {
		t.Fatalf("readSegment = %v, want a corrupt-segment refusal", err)
	}
}

// TestOpenQuarantinesCollidingSegment: a checksum-valid segment whose ids
// collide with ids the tree holds elsewhere — a base object, itself, an id
// the WAL assigns past the manifest's NextID, a tier kept before it — or
// whose tombstones repeat or reach past NextID is quarantined like any
// corrupt tier, so the recovered tree answers no id twice and counts each
// live object once.
func TestOpenQuarantinesCollidingSegment(t *testing.T) {
	seed := fuzzSeedTree(t)
	rows := map[string]map[string][]byte{}
	for name, seg := range collidingSegments(t) {
		rows[name] = map[string][]byte{fuzzFiles[1]: seg}
	}
	// The seed manifest, edited to agree with a rewritten tier list.
	manifestWith := func(edit func(*manifest)) []byte {
		var man manifest
		if err := json.Unmarshal(seed[manifestName], &man); err != nil {
			t.Fatal(err)
		}
		edit(&man)
		blob, err := json.Marshal(&man)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	// A second tier whose only id, 8, is the first tier's last.
	rows["overlaps the tier before"] = map[string][]byte{
		"000002.seg": segmentOf(t, 2, nil, 8),
		manifestName: manifestWith(func(m *manifest) {
			m.Tiers = append(m.Tiers, TierStatus{Seq: 2, N: 1})
			m.NextTierSeq = 3
		}),
	}
	for name, tombs := range map[string][]uint32{"duplicate tombstone": {1, 1}, "tombstone at NextID": {9}} {
		rows[name] = map[string][]byte{
			fuzzFiles[1]: segmentOf(t, 1, tombs, 6, 7, 8),
			manifestName: manifestWith(func(m *manifest) { m.Tiers[0].Tombstones = len(tombs) }),
		}
	}

	baseVecs := randVecs(1, fuzzBaseN)
	base := seqscan.New[[]float32](space.L2{}, baseVecs)
	for name, files := range rows {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			for _, m := range []map[string][]byte{seed, files} {
				for file, blob := range m {
					if err := os.WriteFile(filepath.Join(dir, file), blob, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
			tree, err := Open(fuzzOptions(dir))
			if err != nil {
				t.Fatal(err)
			}
			defer tree.Close()
			st := tree.Status()
			if len(st.Quarantined) != 1 {
				t.Fatalf("quarantined %q, want the colliding segment alone", st.Quarantined)
			}
			for _, k := range []int{4, 100} {
				got := search(tree, base, baseVecs[2], k)
				if id, ok := repeatedID(got); ok {
					t.Fatalf("k=%d answers id %d twice: %v", k, id, got)
				}
				if k == 100 && len(got) != st.Live {
					t.Fatalf("Live = %d, but an exhaustive query answers %d ids", st.Live, len(got))
				}
			}
		})
	}
}
