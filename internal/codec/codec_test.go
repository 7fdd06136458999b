package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// rechecksum rewrites the CRC-32C trailer over a patched blob, so tests can
// reach validation layers behind the checksum.
func rechecksum(blob []byte) {
	body := blob[:len(blob)-4]
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.Checksum(body, castagnoli))
}

// roundtripBlob writes one value of every primitive through a Writer and
// returns the blob.
func roundtripBlob(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := NewWriter(&buf, KindNAPP, "l2", 42)
	cw.U8(7)
	cw.U16(65535)
	cw.U32(1 << 30)
	cw.U64(1 << 60)
	cw.I32(-12345)
	cw.I64(-1 << 40)
	cw.Int(987654)
	cw.F64(math.Pi)
	cw.F32(2.5)
	cw.U32s([]uint32{1, 2, 3})
	cw.I32s([]int32{-1, 0, 1})
	cw.U64s([]uint64{9, 8})
	cw.F32s([]float32{0.5})
	cw.F64s([]float64{-0.25, 4})
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPrimitivesRoundtrip(t *testing.T) {
	cr, err := NewReader(bytes.NewReader(roundtripBlob(t)))
	if err != nil {
		t.Fatal(err)
	}
	hdr := cr.Header()
	if hdr.Version != Version || hdr.Kind != KindNAPP || hdr.Space != "l2" || hdr.N != 42 {
		t.Fatalf("header = %+v", hdr)
	}
	if err := cr.Expect(KindNAPP, "l2", 42); err != nil {
		t.Fatalf("Expect on matching context: %v", err)
	}
	if got := cr.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := cr.U16(); got != 65535 {
		t.Errorf("U16 = %d", got)
	}
	if got := cr.U32(); got != 1<<30 {
		t.Errorf("U32 = %d", got)
	}
	if got := cr.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := cr.I32(); got != -12345 {
		t.Errorf("I32 = %d", got)
	}
	if got := cr.I64(); got != -1<<40 {
		t.Errorf("I64 = %d", got)
	}
	if got := cr.Int(); got != 987654 {
		t.Errorf("Int = %d", got)
	}
	if got := cr.F64(); got != math.Pi {
		t.Errorf("F64 = %g", got)
	}
	if got := cr.F32(); got != 2.5 {
		t.Errorf("F32 = %g", got)
	}
	if got := cr.U32s(); len(got) != 3 || got[2] != 3 {
		t.Errorf("U32s = %v", got)
	}
	if got := cr.I32s(); len(got) != 3 || got[0] != -1 {
		t.Errorf("I32s = %v", got)
	}
	if got := cr.U64s(); len(got) != 2 || got[0] != 9 {
		t.Errorf("U64s = %v", got)
	}
	if got := cr.F32s(); len(got) != 1 || got[0] != 0.5 {
		t.Errorf("F32s = %v", got)
	}
	if got := cr.F64s(); len(got) != 2 || got[1] != 4 {
		t.Errorf("F64s = %v", got)
	}
	if err := cr.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestExpectMismatches(t *testing.T) {
	blob := roundtripBlob(t)
	cr, err := NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.Expect(KindVPTree, "l2", 42); err == nil {
		t.Error("Expect accepted the wrong kind")
	}
	if err := cr.Expect(KindNAPP, "l1", 42); err == nil {
		t.Error("Expect accepted the wrong space")
	}
	if err := cr.Expect(KindNAPP, "l2", 41); err == nil {
		t.Error("Expect accepted the wrong data size")
	}
}

func TestCorruptionDetection(t *testing.T) {
	blob := roundtripBlob(t)

	// Every single-byte flip must be rejected by the checksum.
	for pos := range blob {
		mut := bytes.Clone(blob)
		mut[pos] ^= 0x01
		if _, err := NewReader(bytes.NewReader(mut)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrCorrupt", pos, err)
		}
	}
	// Every truncation must be rejected too.
	for cut := 0; cut < len(blob); cut++ {
		if _, err := NewReader(bytes.NewReader(blob[:cut])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: got %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestUnconsumedPayloadFailsFinish(t *testing.T) {
	cr, err := NewReader(bytes.NewReader(roundtripBlob(t)))
	if err != nil {
		t.Fatal(err)
	}
	if err := cr.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Finish with unread payload: got %v, want ErrCorrupt", err)
	}
}

// TestLengthCap asserts a declared slice length larger than the remaining
// payload fails before allocation: the error path, not an OOM, must handle
// it. The blob is rebuilt with a valid checksum so only the length check
// can reject it.
func TestLengthCap(t *testing.T) {
	var buf bytes.Buffer
	cw := NewWriter(&buf, KindSeqScan, "l2", 1)
	cw.U64(1 << 62) // slice "length" with no elements behind it
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := cr.U32s(); got != nil {
		t.Errorf("U32s returned %d elements off a bogus length", len(got))
	}
	if err := cr.Err(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestTagCap asserts oversized header strings are rejected.
func TestTagCap(t *testing.T) {
	var buf bytes.Buffer
	cw := NewWriter(&buf, strings.Repeat("x", maxTagLen+1), "l2", 0)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt for oversized kind tag", err)
	}
}

// TestVersionRejected asserts a future format version fails cleanly. The
// version field sits right after the 4-byte magic; patching it invalidates
// the checksum, so the trailer is recomputed the same way the writer does.
func TestVersionRejected(t *testing.T) {
	blob := roundtripBlob(t)
	mut := bytes.Clone(blob)
	mut[4] = byte(Version + 1)
	rechecksum(mut)
	_, err := NewReader(bytes.NewReader(mut))
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("got %v, want ErrUnsupportedVersion", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatal("a version mismatch must not read as corruption (warm starts rebuild on it)")
	}
}
