package lsm

import (
	"bytes"
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
// searched, inspected and closed; either way it never panics, and what it
// allocates is bounded by the bytes it was given, not by a count they claim.
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
				if _, err := tree.SearchAppend(nil, base, query, index.Options{K: k}); err != nil {
					t.Errorf("search k=%d on a recovered tree: %v", k, err)
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
	if _, err := readSegment(vfs.OS{}, dir, "l2", 1, fuzzOptions(dir).Decode); !isCorrupt(err) {
		t.Fatalf("readSegment = %v, want a corrupt-segment refusal", err)
	}
}
