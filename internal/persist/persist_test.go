package persist_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/persist"
	"repro/internal/seqscan"
	"repro/internal/space"
)

// TestLoadIndexSet saves two different index kinds over one corpus and
// warm-starts both from the directory, checking names and identical answers.
func TestLoadIndexSet(t *testing.T) {
	db := dataset.SIFT(9, 200)
	sp := space.L2{}
	na, err := core.NewNAPP[[]float32](sp, db, core.NAPPOptions{
		NumPivots: 32, NumPivotIndex: 8, MinShared: 1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	scan := seqscan.New[[]float32](sp, db)

	dir := t.TempDir()
	if err := persist.SaveFile(filepath.Join(dir, "fast.psix"), na); err != nil {
		t.Fatal(err)
	}
	if err := persist.SaveFile(filepath.Join(dir, "exact.psix"), scan); err != nil {
		t.Fatal(err)
	}
	// Non-index files in the directory are ignored.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	set, err := persist.LoadIndexSet(dir, sp, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set["fast"] == nil || set["exact"] == nil {
		t.Fatalf("loaded set keys: %v", keys(set))
	}
	for i := 0; i < 5; i++ {
		if got, want := set["fast"].Search(db[i], 10), na.Search(db[i], 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: loaded napp differs from original", i)
		}
		if got, want := set["exact"].Search(db[i], 10), scan.Search(db[i], 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: loaded seqscan differs from original", i)
		}
	}

	// A corrupt file in the directory fails the whole set.
	if err := os.WriteFile(filepath.Join(dir, "bad.psix"), []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := persist.LoadIndexSet(dir, sp, db); err == nil {
		t.Fatal("corrupt member accepted")
	}
}

func TestPeekHeader(t *testing.T) {
	db := dataset.SIFT(9, 120)
	scan := seqscan.New[[]float32](space.L2{}, db)
	path := filepath.Join(t.TempDir(), "scan.psix")
	if err := persist.SaveFile(path, scan); err != nil {
		t.Fatal(err)
	}
	hdr, err := persist.PeekHeader(path)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != "seqscan" || hdr.Space != "l2" || hdr.N != 120 {
		t.Fatalf("header = %+v", hdr)
	}
	if _, err := persist.PeekHeader(filepath.Join(t.TempDir(), "missing.psix")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestFileChecksum pins the trailer-aware checksum semantics: the value
// equals the file's own codec trailer (read back as little-endian from the
// final four bytes), differs across different indexes, and a whole-file
// CRC-32C would not — it is the same constant residue for every valid file,
// which is exactly why FileChecksum excludes the trailer.
func TestFileChecksum(t *testing.T) {
	dir := t.TempDir()
	db := dataset.SIFT(9, 120)
	paths := make([]string, 2)
	for i, n := range []int{100, 120} {
		p := filepath.Join(dir, fmt.Sprintf("s%d.psix", i))
		if err := persist.SaveFile(p, seqscan.New[[]float32](space.L2{}, db[:n])); err != nil {
			t.Fatal(err)
		}
		paths[i] = p
	}
	sums := make([]uint32, 2)
	for i, p := range paths {
		sum, err := codec.FileChecksum(p)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		trailer := binary.LittleEndian.Uint32(blob[len(blob)-4:])
		if sum != trailer {
			t.Errorf("%s: FileChecksum %08x != stored trailer %08x", p, sum, trailer)
		}
		// The whole-file CRC-32C is the fixed residue for any intact file.
		whole := crc32.Checksum(blob, crc32.MakeTable(crc32.Castagnoli))
		if whole != 0x48674bc7 {
			t.Errorf("%s: whole-file crc32c %08x, expected the constant residue 48674bc7", p, whole)
		}
		sums[i] = sum
	}
	if sums[0] == sums[1] {
		t.Errorf("different indexes share checksum %08x", sums[0])
	}
	if _, err := codec.FileChecksum(filepath.Join(dir, "missing.psix")); err == nil {
		t.Error("FileChecksum of a missing file must error")
	}
}
