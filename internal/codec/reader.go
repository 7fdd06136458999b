package codec

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
)

// Reader decodes one index blob. NewReader slurps the input, verifies the
// checksum trailer and parses the header; payload sections are then consumed
// sequentially with the typed Read methods. Every length prefix is checked
// against the bytes actually remaining before anything is allocated, so
// corrupt input fails with an error instead of an enormous allocation.
//
// Like Writer, errors are sticky: after the first failure every Read method
// returns zero values and Err reports the cause.
type Reader struct {
	hdr Header
	buf []byte // remaining payload
	err error
}

// NewReader reads the whole blob from r, verifies magic, version and
// CRC-32C, and leaves the reader positioned at the first payload byte. Both
// Version and SegmentVersion pass; each kind's loader checks its own.
func NewReader(r io.Reader) (*Reader, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("codec: reading index blob: %w", err)
	}
	// Smallest possible blob: magic + version + two empty strings + n +
	// crc trailer.
	if len(blob) < len(Magic)+2+4+4+8+4 {
		return nil, corruptf("blob of %d bytes is shorter than the fixed header", len(blob))
	}
	body, trailer := blob[:len(blob)-4], blob[len(blob)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, corruptf("checksum mismatch (file %08x, computed %08x)", want, got)
	}
	if string(body[:len(Magic)]) != Magic {
		return nil, corruptf("bad magic %q", body[:len(Magic)])
	}
	cr := &Reader{buf: body[len(Magic):]}
	cr.hdr.Version = cr.U16()
	if v := cr.hdr.Version; cr.err == nil && v != Version && v != SegmentVersion {
		return nil, fmt.Errorf("%w %d (this build reads %d and %d)", ErrUnsupportedVersion, v, Version, SegmentVersion)
	}
	cr.hdr.Kind = cr.tag()
	cr.hdr.Space = cr.tag()
	cr.hdr.N = cr.U64()
	if cr.err != nil {
		return nil, cr.err
	}
	return cr, nil
}

// FileChecksum returns the CRC-32C of an index file's contents excluding
// its final four bytes — exactly the value the trailer stores. A whole-file
// checksum would be useless here: the CRC of a message with its own CRC
// appended is a constant (0x48674bc7 for Castagnoli) for every intact file.
// Excluding the trailer yields a value that distinguishes files and doubles
// as an integrity check against the trailer itself. The shard-set manifests
// (internal/shard) record it per shard so shipped snapshots can be verified
// without loading them.
func FileChecksum(path string) (uint32, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(blob) < 5 {
		return 0, fmt.Errorf("%s: %d bytes is too short for a checksummed index file", path, len(blob))
	}
	return crc32.Checksum(blob[:len(blob)-4], castagnoli), nil
}

// Header returns the decoded fixed prelude.
func (cr *Reader) Header() Header { return cr.hdr }

// Err returns the sticky decoding error, if any.
func (cr *Reader) Err() error { return cr.err }

// Length reads a uint64 element count for a section of elemSize-byte
// elements and validates it against the remaining payload, exactly like the
// built-in slice readers do, for decoders of custom record sections.
func (cr *Reader) Length(elemSize int) int { return cr.length(elemSize) }

// Expect validates the header against what an index loader requires: the
// index Version (another is ErrUnsupportedVersion: rebuild, not migrate), the
// kind tag it decodes, the space the caller searches under, and the length
// of the data slice the caller supplies. A mismatch of the last three means
// the file belongs to a different index, distance or data set.
func (cr *Reader) Expect(kind, spaceName string, n int) error {
	if cr.hdr.Version != Version {
		return fmt.Errorf("%w %d: this build reads index files of version %d; rebuild the index (e.g. with shardsplit)",
			ErrUnsupportedVersion, cr.hdr.Version, Version)
	}
	if cr.hdr.Kind != kind {
		return fmt.Errorf("codec: file holds a %q index, loader expects %q", cr.hdr.Kind, kind)
	}
	if cr.hdr.Space != spaceName {
		return fmt.Errorf("codec: index was built under space %q, loader supplies %q", cr.hdr.Space, spaceName)
	}
	if cr.hdr.N != uint64(n) {
		return fmt.Errorf("codec: index was built over %d points, loader supplies %d", cr.hdr.N, n)
	}
	return nil
}

// Finish reports whether decoding consumed the payload cleanly: it returns
// the sticky error, or an ErrCorrupt if trailing payload bytes remain.
func (cr *Reader) Finish() error {
	if cr.err != nil {
		return cr.err
	}
	if len(cr.buf) != 0 {
		return corruptf("%d unconsumed payload bytes", len(cr.buf))
	}
	return nil
}

// take consumes n bytes of payload.
func (cr *Reader) take(n int) []byte {
	if cr.err != nil {
		return nil
	}
	if n < 0 || n > len(cr.buf) {
		cr.err = corruptf("section of %d bytes exceeds the %d remaining", n, len(cr.buf))
		return nil
	}
	out := cr.buf[:n]
	cr.buf = cr.buf[n:]
	return out
}

// length reads a uint64 element count and validates count*elemSize against
// the remaining payload.
func (cr *Reader) length(elemSize int) int {
	n := cr.U64()
	if cr.err != nil {
		return 0
	}
	if n > uint64(len(cr.buf)/elemSize) {
		cr.err = corruptf("declared length %d exceeds the %d remaining bytes (elem size %d)", n, len(cr.buf), elemSize)
		return 0
	}
	return int(n)
}

// U8 reads one byte.
func (cr *Reader) U8() uint8 {
	b := cr.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (cr *Reader) U16() uint16 {
	b := cr.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (cr *Reader) U32() uint32 {
	b := cr.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (cr *Reader) U64() uint64 {
	b := cr.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I32 reads a little-endian int32.
func (cr *Reader) I32() int32 { return int32(cr.U32()) }

// I64 reads a little-endian int64.
func (cr *Reader) I64() int64 { return int64(cr.U64()) }

// Int reads an int64-encoded int and validates it fits the platform int.
func (cr *Reader) Int() int {
	v := cr.I64()
	if cr.err == nil && (v > math.MaxInt32 || v < math.MinInt32) {
		// Option fields and counts never approach 2^31; a larger value
		// means corruption (and would overflow 32-bit platforms).
		cr.err = corruptf("int field %d out of range", v)
		return 0
	}
	return int(v)
}

// F64 reads a little-endian IEEE-754 double.
func (cr *Reader) F64() float64 { return math.Float64frombits(cr.U64()) }

// F32 reads a little-endian IEEE-754 single.
func (cr *Reader) F32() float32 { return math.Float32frombits(cr.U32()) }

// tag reads a header string, capped at maxTagLen.
func (cr *Reader) tag() string {
	n := cr.U32()
	if cr.err != nil {
		return ""
	}
	if n > maxTagLen {
		cr.err = corruptf("tag of %d bytes exceeds cap %d", n, maxTagLen)
		return ""
	}
	return string(cr.take(int(n)))
}

// Bytes reads a length-prefixed raw byte section written by Writer.Bytes.
// The returned slice is a copy, safe to retain after the blob is released.
// The length is validated against the remaining payload before allocating.
func (cr *Reader) Bytes() []byte {
	n := cr.length(1)
	if cr.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, cr.take(n))
	return out
}

// U32s reads a length-prefixed []uint32 section.
func (cr *Reader) U32s() []uint32 {
	n := cr.length(4)
	if cr.err != nil || n == 0 {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = cr.U32()
	}
	return out
}

// I32s reads a length-prefixed []int32 section.
func (cr *Reader) I32s() []int32 {
	n := cr.length(4)
	if cr.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = cr.I32()
	}
	return out
}

// U64s reads a length-prefixed []uint64 section.
func (cr *Reader) U64s() []uint64 {
	n := cr.length(8)
	if cr.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = cr.U64()
	}
	return out
}

// F32s reads a length-prefixed []float32 section.
func (cr *Reader) F32s() []float32 {
	n := cr.length(4)
	if cr.err != nil || n == 0 {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = cr.F32()
	}
	return out
}

// F64s reads a length-prefixed []float64 section.
func (cr *Reader) F64s() []float64 {
	n := cr.length(8)
	if cr.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = cr.F64()
	}
	return out
}

// Corruptf lets payload decoders flag semantic corruption (an id out of
// range, an impossible option value) through the sticky error, so later
// reads are no-ops and the caller sees ErrCorrupt.
func (cr *Reader) Corruptf(format string, args ...any) {
	if cr.err == nil {
		cr.err = corruptf(format, args...)
	}
}
