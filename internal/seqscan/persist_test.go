package seqscan

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/space"
)

func TestTombstoneOutOfRangeRejected(t *testing.T) {
	data := [][]float32{{0}, {1}}
	s := New[[]float32](space.L2{}, data)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt the blob: a valid save has an empty tombstone section; hand-
	// write one whose tombstone id is out of range instead.
	var forged bytes.Buffer
	cw := codec.NewWriter(&forged, codec.KindSeqScan, space.L2{}.Name(), len(data))
	cw.U32s([]uint32{9})
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cr, err := codec.NewReader(bytes.NewReader(forged.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Load[[]float32](cr, space.L2{}, data); err == nil {
		t.Fatal("out-of-range tombstone id loaded without error")
	}
}
