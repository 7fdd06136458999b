package seqscan

import (
	"io"

	"repro/internal/codec"
	"repro/internal/space"
)

// Persistence. A sequential scanner has no derived structure, so its payload
// is empty: the file is the header alone, naming the space and corpus size a
// load must match.

// Save serializes the scanner under kind "seqscan".
func (s *Scanner[T]) Save(w io.Writer) error {
	return codec.NewWriter(w, codec.KindSeqScan, s.sp.Name(), len(s.data)).Close()
}

// Load reads a scanner saved by Save over the same data.
func Load[T any](cr *codec.Reader, sp space.Space[T], data []T) (*Scanner[T], error) {
	if err := cr.Expect(codec.KindSeqScan, sp.Name(), len(data)); err != nil {
		return nil, err
	}
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	return New(sp, data), nil
}
