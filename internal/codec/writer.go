package codec

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
)

// castagnoli is the CRC-32C polynomial table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer serializes one index blob: header, kind-specific payload sections,
// CRC-32C trailer. Errors are sticky — the first write failure is remembered
// and returned by Close, so payload code can write unconditionally.
type Writer struct {
	w   *bufio.Writer
	crc uint32
	err error
	buf [8]byte
}

// NewWriter writes the header for an index of the given kind, built under
// the named space over n data points, and returns a Writer for the payload.
// Call Close after the payload to flush and append the checksum.
func NewWriter(w io.Writer, kind, spaceName string, n int) *Writer {
	cw := &Writer{w: bufio.NewWriter(w)}
	cw.raw([]byte(Magic))
	cw.U16(Version)
	cw.String(kind)
	cw.String(spaceName)
	cw.U64(uint64(n))
	return cw
}

// raw writes p, folding it into the running checksum.
func (cw *Writer) raw(p []byte) {
	if cw.err != nil {
		return
	}
	cw.crc = crc32.Update(cw.crc, castagnoli, p)
	_, cw.err = cw.w.Write(p)
}

// Close appends the CRC-32C trailer and flushes. It returns the first error
// encountered by any write.
func (cw *Writer) Close() error {
	binary.LittleEndian.PutUint32(cw.buf[:4], cw.crc)
	if cw.err == nil {
		_, cw.err = cw.w.Write(cw.buf[:4])
	}
	if cw.err == nil {
		cw.err = cw.w.Flush()
	}
	return cw.err
}

// U8 writes one byte.
func (cw *Writer) U8(v uint8) { cw.raw([]byte{v}) }

// Bool writes a boolean as one byte.
func (cw *Writer) Bool(v bool) {
	if v {
		cw.U8(1)
	} else {
		cw.U8(0)
	}
}

// U16 writes a little-endian uint16.
func (cw *Writer) U16(v uint16) {
	binary.LittleEndian.PutUint16(cw.buf[:2], v)
	cw.raw(cw.buf[:2])
}

// U32 writes a little-endian uint32.
func (cw *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(cw.buf[:4], v)
	cw.raw(cw.buf[:4])
}

// U64 writes a little-endian uint64.
func (cw *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(cw.buf[:8], v)
	cw.raw(cw.buf[:8])
}

// I32 writes a little-endian int32.
func (cw *Writer) I32(v int32) { cw.U32(uint32(v)) }

// I64 writes a little-endian int64.
func (cw *Writer) I64(v int64) { cw.U64(uint64(v)) }

// Int writes an int as int64 (options fields, counts).
func (cw *Writer) Int(v int) { cw.I64(int64(v)) }

// F64 writes a little-endian IEEE-754 double.
func (cw *Writer) F64(v float64) { cw.U64(math.Float64bits(v)) }

// F32 writes a little-endian IEEE-754 single.
func (cw *Writer) F32(v float32) { cw.U32(math.Float32bits(v)) }

// String writes a uint32 length prefix followed by the UTF-8 bytes.
func (cw *Writer) String(s string) {
	cw.U32(uint32(len(s)))
	cw.raw([]byte(s))
}

// Bytes writes a length-prefixed raw byte section. It exists for payloads
// that carry opaque client data (the object payloads of an LSM segment, which
// the codec cannot interpret but must round-trip byte-exactly).
func (cw *Writer) Bytes(p []byte) {
	cw.U64(uint64(len(p)))
	cw.raw(p)
}

// U32s writes a length-prefixed []uint32 section.
func (cw *Writer) U32s(vs []uint32) {
	cw.U64(uint64(len(vs)))
	for _, v := range vs {
		cw.U32(v)
	}
}

// I32s writes a length-prefixed []int32 section.
func (cw *Writer) I32s(vs []int32) {
	cw.U64(uint64(len(vs)))
	for _, v := range vs {
		cw.I32(v)
	}
}

// U64s writes a length-prefixed []uint64 section.
func (cw *Writer) U64s(vs []uint64) {
	cw.U64(uint64(len(vs)))
	for _, v := range vs {
		cw.U64(v)
	}
}

// F32s writes a length-prefixed []float32 section.
func (cw *Writer) F32s(vs []float32) {
	cw.U64(uint64(len(vs)))
	for _, v := range vs {
		cw.F32(v)
	}
}

// F64s writes a length-prefixed []float64 section.
func (cw *Writer) F64s(vs []float64) {
	cw.U64(uint64(len(vs)))
	for _, v := range vs {
		cw.F64(v)
	}
}
