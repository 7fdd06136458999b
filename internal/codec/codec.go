// Package codec implements the on-disk format shared by every index in this
// repository. The paper's pipeline rebuilds each index from scratch on every
// run; persisting the built structure lets a benchmark (or a serving
// process) construct once and warm-start many times, paying only the load
// cost instead of the full set of construction distance computations.
//
// # Format
//
// A persisted index is a single binary blob:
//
//	offset 0  magic   "PSIX" (4 bytes)
//	          version uint16, little-endian (Version, or SegmentVersion for
//	                  an LSM segment)
//	          kind    length-prefixed UTF-8 string (the index.Name tag,
//	                  e.g. "napp" or "sw-graph")
//	          space   length-prefixed UTF-8 string (space.Space.Name of the
//	                  distance the index was built under)
//	          n       uint64, number of data points the index was built over
//	          payload kind-specific sections (see the persist.go file of
//	                  each index package)
//	trailer   crc32c  uint32 Castagnoli checksum of every preceding byte
//
// All integers are little-endian. Variable-length sections are
// length-prefixed; lengths are validated against the number of bytes
// actually remaining in the blob before any allocation, so a corrupted or
// adversarial length can never cause an out-of-memory allocation (see
// FuzzLoad). Every payload of the permutation methods (internal/core) opens
// with its pivot sets: an int64 count, then one []int32 section of data ids
// per set.
//
// The raw data objects are deliberately NOT part of the format: an index
// file is a companion to the data set it was built from (loaders receive the
// same data slice and verify its length and space name), which keeps the
// format object-type-agnostic — one codec serves dense vectors, sparse
// vectors, histograms, strings and SQFD signatures alike. Pivot sets are
// stored as ids into the data slice, never as serialized objects.
//
// # Versioning policy
//
// Each kind of blob carries its own version, so bumping one never strands
// the other. Index files carry Version, bumped whenever the header or an
// index payload changes incompatibly; Reader.Expect, which every index
// loader calls, refuses any other with ErrUnsupportedVersion. There is no
// migration: an index is derived from its data set, so an older file is
// rebuilt, never decoded. LSM segments (KindLSMSegment) carry
// SegmentVersion: a segment holds acknowledged writes that exist nowhere
// else, so its version moves only with its own payload, and a build that
// moves it must still read the old one. NewReader accepts both versions.
package codec

import (
	"errors"
	"fmt"
)

// Magic is the 4-byte file signature.
const Magic = "PSIX"

// Version is the format version of index files. Version 3 framed every
// permutation payload with its pivot sets and dropped five slots that older
// builds wrote as zero or empty.
const Version = 3

// SegmentVersion is the format version of LSM segments.
const SegmentVersion = 2

// Kind tags, one per persistable index family. The tag doubles as the
// index's report name (index.Index.Name), so a file is self-describing.
const (
	KindBruteForce  = "brute-force-filt"
	KindBinFilter   = "brute-force-filt-bin"
	KindQuantFilter = "brute-force-filt-quant"
	KindDistVec     = "distvec-filt"
	KindPPIndex     = "pp-index"
	KindMIFile      = "mi-file"
	KindNAPP        = "napp"
	KindOMEDRANK    = "omedrank"
	KindPermVPTree  = "perm-vptree"
	KindVPTree      = "vptree"
	KindMPLSH       = "mplsh"
	KindSWGraph     = "sw-graph"
	KindNNDescent   = "nndescent-graph"
	KindSeqScan     = "seqscan"
)

// KindLSMSegment tags a sealed LSM tier segment (internal/lsm): the raw
// objects, global ids and tombstones of one sealed memtable generation. It is
// not an index kind — segments carry the objects an index file cannot — so it
// is absent from Kinds() and not loadable through the internal/persist
// registry; internal/lsm decodes it directly.
const KindLSMSegment = "lsm-segment"

// Kinds lists every kind tag the registry (internal/persist) can load, in a
// fixed report order.
func Kinds() []string {
	return []string{
		KindBruteForce, KindBinFilter, KindQuantFilter, KindDistVec,
		KindPPIndex, KindMIFile, KindNAPP, KindOMEDRANK, KindPermVPTree,
		KindVPTree, KindMPLSH, KindSWGraph, KindNNDescent, KindSeqScan,
	}
}

// ErrCorrupt is wrapped by every decoding error caused by malformed input
// (bad magic, short read, failed checksum, out-of-range length or id).
var ErrCorrupt = errors.New("codec: corrupt index file")

// ErrUnsupportedVersion is returned for a well-formed file of a version its
// loader does not read. It is distinct from ErrCorrupt so warm-start paths can
// rebuild (the rebuild-not-migrate policy) yet fail loudly on real damage.
var ErrUnsupportedVersion = errors.New("codec: unsupported format version")

// ErrNotPersistable is returned by Save when an index cannot be serialized —
// today only indexes built over explicit pivot objects (rather than pivots
// sampled from the data set), whose pivots have no data ids to reference.
var ErrNotPersistable = errors.New("codec: index is not persistable")

// corruptf returns an ErrCorrupt-wrapping error with detail.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// Header is the decoded fixed prelude of a persisted index.
type Header struct {
	// Version is the format version the file was written with.
	Version uint16
	// Kind is the index-kind tag (one of the Kind constants).
	Kind string
	// Space is the report name of the distance space the index was built
	// under; loaders reject a mismatching space.
	Space string
	// N is the number of data points the index was built over; loaders
	// reject a data slice of any other length.
	N uint64
}

// maxTagLen bounds the kind and space strings in the header; real tags are
// all far shorter, and the cap keeps corrupt headers from allocating.
const maxTagLen = 256
