package seqscan

import (
	"io"

	"repro/internal/codec"
	"repro/internal/space"
)

// Persistence. A sequential scanner has no derived structure; its payload is
// one retired slot, the tombstone list of builds whose scanner deleted in
// place. Save writes it empty, and Load refuses a file whose list is not:
// ignoring it would bring the deleted objects back.

// Save serializes the scanner under kind "seqscan".
func (s *Scanner[T]) Save(w io.Writer) error {
	cw := codec.NewWriter(w, codec.KindSeqScan, s.sp.Name(), len(s.data))
	cw.U32s(nil)
	return cw.Close()
}

// Load reads a scanner saved by Save over the same data.
func Load[T any](cr *codec.Reader, sp space.Space[T], data []T) (*Scanner[T], error) {
	if err := cr.Expect(codec.KindSeqScan, sp.Name(), len(data)); err != nil {
		return nil, err
	}
	if n := cr.Length(4); n > 0 {
		cr.Corruptf("%d ids in the retired tombstone slot", n)
	}
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	return New(sp, data), nil
}
