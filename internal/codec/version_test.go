package codec_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/index"
	"repro/internal/lsm"
	"repro/internal/persist"
	"repro/internal/seqscan"
	"repro/internal/space"
)

// TestCodecVersionSplit pins the per-kind version policy. An index file of
// the previous version is refused as unsupported — rebuilt, never read as
// corrupt — while an LSM segment keeps its own version, so a tree sealed by
// the segment writer reopens with every acknowledged add.
func TestCodecVersionSplit(t *testing.T) {
	data := fuzzCorpus()
	for i, seed := range fuzzSeeds(t) {
		v2 := bytes.Clone(seed)
		binary.LittleEndian.PutUint16(v2[len(codec.Magic):], 2)
		body := v2[:len(v2)-4]
		binary.LittleEndian.PutUint32(v2[len(body):], crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
		_, err := persist.Load[[]float32](bytes.NewReader(v2), space.L2{}, data)
		if !errors.Is(err, codec.ErrUnsupportedVersion) || errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("seed %d as version 2: load = %v, want ErrUnsupportedVersion and not ErrCorrupt", i, err)
		}
	}

	dir := filepath.Join(t.TempDir(), "tree")
	open := func() *lsm.Tree[[]float32] {
		tree, err := lsm.Open(lsm.Options[[]float32]{
			Dir: dir, Space: space.L2{}, BaseN: len(data), NoFsync: true,
			Decode: func(raw []byte) ([]float32, error) { return []float32{float32(len(raw)), 0, 0, 0}, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		return tree
	}
	tree := open()
	var acked []uint32
	for n := 1; n <= 5; n++ {
		id, err := tree.Add(make([]byte, 100*n)) // decodes to {100n, 0, 0, 0}, far from the corpus
		if err != nil {
			t.Fatal(err)
		}
		acked = append(acked, id)
	}
	st, err := tree.Flush()
	if err != nil || st == nil {
		t.Fatalf("flush: %v, %v", st, err)
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 1 {
		t.Fatalf("sealed tree holds segments %v, want one", segs)
	}
	f, err := os.Open(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	cr, err := codec.NewReader(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hdr := cr.Header(); hdr.Kind != codec.KindLSMSegment || hdr.Version != 2 {
		t.Fatalf("sealed segment header %+v, want kind %q at version 2", hdr, codec.KindLSMSegment)
	}

	re := open()
	defer re.Close()
	base := seqscan.New[[]float32](space.L2{}, data)
	for n, id := range acked {
		q := []float32{float32(100 * (n + 1)), 0, 0, 0}
		got, err := re.SearchAppend(nil, base, q, index.Options{K: 1})
		if err != nil || len(got) != 1 || got[0].ID != id || got[0].Dist != 0 {
			t.Errorf("acknowledged add %d after reopen: search answered %+v, %v", id, got, err)
		}
	}
}
