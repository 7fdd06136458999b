// Package persist is the kind registry of the index persistence subsystem:
// it saves any index that writes itself under its codec kind tag, and maps
// every kind tag read from a file header back to the loader that
// reconstructs a ready index.Index. The byte format itself lives in
// internal/codec; the per-kind payloads live in each index package.
//
// Loading always requires the space and data set the index was originally
// built over — the format stores derived structure only, never the data
// objects (see the codec package documentation for why). Save(Load(x)) and
// Load(Save(x)) are both identity on search behavior; internal/indextest
// asserts this for every kind.
package persist

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/lsh"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/vfs"
	"repro/internal/vptree"
)

// Save serializes any index built by this repository to w in the codec
// format. It returns codec.ErrNotPersistable for index types that cannot
// save themselves and for indexes built over explicit (non-sampled) pivot
// sets.
func Save[T any](w io.Writer, idx index.Index[T]) error {
	if s, ok := idx.(interface{ Save(io.Writer) error }); ok {
		return s.Save(w)
	}
	return fmt.Errorf("%w: no kind registered for %T (%s)", codec.ErrNotPersistable, idx, idx.Name())
}

// Load reads one index from r and reconstructs it over sp and data, which
// must be the space and data set the index was saved with (the header's
// space name and data-set size are verified). The concrete type is selected
// by the file's kind tag; the returned index is ready to Search.
//
// The "mplsh" kind applies only to dense vectors under L2, mirroring its
// constructor: loading it under any other object type T fails.
func Load[T any](r io.Reader, sp space.Space[T], data []T) (index.Index[T], error) {
	cr, err := codec.NewReader(r)
	if err != nil {
		return nil, err
	}
	switch kind := cr.Header().Kind; kind {
	case codec.KindBruteForce, codec.KindBinFilter, codec.KindQuantFilter, codec.KindDistVec:
		return core.LoadScanFilter(cr, sp, data)
	case codec.KindPPIndex:
		return core.LoadPPIndex(cr, sp, data)
	case codec.KindMIFile:
		return core.LoadMIFile(cr, sp, data)
	case codec.KindNAPP:
		return core.LoadNAPP(cr, sp, data)
	case codec.KindOMEDRANK:
		return core.LoadOMEDRANK(cr, sp, data)
	case codec.KindPermVPTree:
		return core.LoadPermVPTree(cr, sp, data)
	case codec.KindVPTree:
		return vptree.Load(cr, sp, data)
	case codec.KindSWGraph, codec.KindNNDescent:
		return knngraph.Load(cr, kind, sp, data)
	case codec.KindSeqScan:
		return seqscan.Load(cr, sp, data)
	case codec.KindMPLSH:
		vecs, ok := any(data).([][]float32)
		if !ok {
			return nil, fmt.Errorf("codec: %q index requires dense []float32 vectors, data is %T", kind, data)
		}
		// lsh.Load validates the header against its hardcoded "l2" tag;
		// the caller's space must agree too, or Search would silently
		// report L2 distances under a different metric.
		if sp.Name() != cr.Header().Space {
			return nil, fmt.Errorf("codec: index was built under space %q, loader supplies %q", cr.Header().Space, sp.Name())
		}
		m, err := lsh.Load(cr, vecs)
		if err != nil {
			return nil, err
		}
		return any(m).(index.Index[T]), nil
	default:
		return nil, fmt.Errorf("codec: unknown index kind %q", kind)
	}
}

// SaveFile writes idx to path atomically and durably (vfs.WriteAtomic):
// neither a crash nor a failed Save can leave a truncated or torn file where
// a good one used to be, and once SaveFile returns nil the new file survives
// a crash.
func SaveFile[T any](path string, idx index.Index[T]) error {
	return vfs.WriteAtomic(vfs.OS{}, path, func(w io.Writer) error { return Save(w, idx) })
}

// LoadFile reads one index from the file at path.
func LoadFile[T any](path string, sp space.Space[T], data []T) (index.Index[T], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, sp, data)
}

// Ext is the conventional file extension of a persisted index.
const Ext = ".psix"

// PeekHeader reads and validates the file at path just far enough to return
// its header — kind, space name, format version and data-set size — without
// reconstructing the index. Callers that serve a directory of heterogeneous
// indexes use it to decide which space and data set to load each file over
// before paying for the load itself. (The whole blob is still read once to
// verify the checksum; an index file is small next to its data set.)
func PeekHeader(path string) (codec.Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return codec.Header{}, err
	}
	defer f.Close()
	cr, err := codec.NewReader(f)
	if err != nil {
		return codec.Header{}, fmt.Errorf("%s: %w", path, err)
	}
	return cr.Header(), nil
}

// LoadIndexSet opens every index file (*.psix) in dir over one shared
// (space, data) pair and returns the ready indexes keyed by file name
// without the extension. This is the warm-start path for a process serving
// several index structures — say, a NAPP and an SW-graph with different
// speed/recall trade-offs — over the same corpus: build and SaveFile each
// once, then any number of processes can LoadIndexSet the directory.
//
// Every file must load cleanly and match sp and data (the per-kind loaders
// verify the header's space name and data-set size); the first failure
// aborts the whole set, so a directory can never be half-served. A dir with
// no index files yields an empty, non-nil map.
func LoadIndexSet[T any](dir string, sp space.Space[T], data []T) (map[string]index.Index[T], error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), Ext) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	out := make(map[string]index.Index[T], len(names))
	for _, name := range names {
		idx, err := LoadFile(filepath.Join(dir, name), sp, data)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", filepath.Join(dir, name), err)
		}
		out[strings.TrimSuffix(name, Ext)] = idx
	}
	return out, nil
}
