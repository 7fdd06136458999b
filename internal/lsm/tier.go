package lsm

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vfs"
)

// Sealed tiers. A seal turns the memtable into one file plus a manifest
// update, in a crash-ordered sequence:
//
//	<seq>.seg     codec blob (kind "lsm-segment"): the live objects' global
//	              ids and raw wire payloads, plus the tombstones of older
//	              objects deleted during this WAL segment's lifetime. The
//	              segment is the whole tier: its objects, decoded, are the
//	              tier's run, and a run has no derived state to store.
//	tiers.json    the manifest naming the live tier sequence numbers, the
//	              current WAL segment and the next id to assign. A file not
//	              named by the manifest does not exist as far as recovery is
//	              concerned — every crash point between the steps leaves
//	              either the old or the new manifest, never a mix.
//
// Both are written with vfs.WriteAtomic. Older builds also kept a <seq>.psix
// (an empty sequential-scan index) beside each segment and a constant "kind" in
// each manifest row: Open ignores the key and removes the files as debris,
// and an older build opening this layout rebuilds the file it misses.
//
// Tombstones in a newer tier only ever target the base corpus or older
// tiers: global ids are assigned monotonically and never reused, so by the
// time an id is sealed into a tier, every later delete of it is recorded in
// a younger WAL segment (hence a younger tier). Masking "newest wins" is
// therefore just set membership in the union of tombstones.

// run is the added objects one component holds (the memtable, a tier, a
// compaction's output). It is searched by an exact scan — correct for every
// space, and runs are small next to the base — so it has no derived state.
type run[T any] struct {
	ids   []uint32 // ascending global ids
	blobs [][]byte // raw wire payloads, parallel to ids
	objs  []T      // decoded objects, parallel to ids
}

func (r *run[T]) add(gid uint32, obj T, blob []byte) {
	r.ids = append(r.ids, gid)
	r.blobs = append(r.blobs, blob)
	r.objs = append(r.objs, obj)
}

// find returns the position of a global id in the run, if present.
func (r *run[T]) find(gid uint32) (int, bool) {
	return slices.BinarySearch(r.ids, gid)
}

// search appends the run's k nearest objects to query by global id; ids
// ascend, so the (dist, id) order survives the translation. Every object is
// one exact distance, the data point on the left, traced by space.Nearest as
// refine work.
func (r *run[T]) search(sp space.Space[T], s *space.Scratch, dst []topk.Neighbor, query T, k int, tr *obs.QueryTrace) []topk.Neighbor {
	start := len(dst)
	dst = space.Nearest(sp, s, dst, query, r.objs, nil, s.Every(len(r.objs)), k, tr)
	for i := start; i < len(dst); i++ {
		dst[i].ID = r.ids[dst[i].ID]
	}
	return dst
}

// tier is one loaded immutable tier: its run of live objects and the
// tombstones of older objects deleted during its WAL segment.
type tier[T any] struct {
	seq uint64
	run[T]
	tombs []uint32 // ascending global ids deleted during this segment
}

// segPath / walPath name the files of a sequence number.
func segPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%06d.seg", seq))
}
func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.log", seq))
}

// writeSegment writes the .seg blob for a tier atomically.
func writeSegment[T any](fsys vfs.FS, dir, spaceName string, tr *tier[T]) error {
	return vfs.WriteAtomic(fsys, segPath(dir, tr.seq), func(w io.Writer) error {
		cw := codec.NewWriter(w, codec.KindLSMSegment, spaceName, len(tr.ids))
		cw.U64(tr.seq)
		cw.U32s(tr.ids)
		cw.U32s(tr.tombs)
		for _, b := range tr.blobs {
			cw.Bytes(b)
		}
		return cw.Close()
	})
}

// errSegCorrupt tags a segment whose bytes were read back fine but describe
// something other than the tier the manifest promised — a decode failure,
// an id section that is out of order or collides with ids held elsewhere, a
// sequence-number mismatch. Together with codec.ErrCorrupt it is the "this
// file is damaged, not this disk is failing" signal Open's quarantine
// decision keys on: a corrupt tier is renamed aside and the rest of the tree
// keeps serving, while a plain read error (EIO) aborts recovery cleanly
// instead of discarding a file that may be perfectly intact.
var errSegCorrupt = errors.New("lsm: segment corrupt")

// isCorrupt reports whether a tier-load failure means damaged bytes (safe
// to quarantine) rather than a failing read path (must abort).
func isCorrupt(err error) bool {
	return errors.Is(err, codec.ErrCorrupt) || errors.Is(err, errSegCorrupt)
}

// readSegment loads and validates a .seg blob of the tree man describes.
// Objects are decoded with the tree's Decode. Its ids must strictly increase
// within [BaseN, NextID), the ids added before the manifest was written, and
// its tombstones must strictly increase below NextID: any other id would
// collide with a base object, with an id the WAL assigns later or with
// itself, and be answered twice.
func readSegment[T any](fsys vfs.FS, dir string, man *manifest, seq uint64, decode func([]byte) (T, error)) (*tier[T], error) {
	path := segPath(dir, seq)
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr, err := codec.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	hdr := cr.Header()
	if hdr.Version != codec.SegmentVersion {
		return nil, fmt.Errorf("%s: segment version %d, this build reads %d: %w", path, hdr.Version, codec.SegmentVersion, codec.ErrUnsupportedVersion)
	}
	if hdr.Kind != codec.KindLSMSegment {
		return nil, fmt.Errorf("%s: file holds a %q blob, want %q: %w", path, hdr.Kind, codec.KindLSMSegment, errSegCorrupt)
	}
	if hdr.Space != man.Space {
		return nil, fmt.Errorf("%s: segment written under space %q, tree uses %q: %w", path, hdr.Space, man.Space, errSegCorrupt)
	}
	tr := &tier[T]{seq: cr.U64()}
	tr.ids = cr.U32s()
	tr.tombs = cr.U32s()
	// The id section's length was checked against the bytes present; the
	// header's count was not, so it sizes nothing until the two agree.
	if cr.Err() == nil && uint64(len(tr.ids)) != hdr.N {
		return nil, fmt.Errorf("%s: %d ids for %d objects: %w", path, len(tr.ids), hdr.N, errSegCorrupt)
	}
	n := len(tr.ids)
	tr.blobs = make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		tr.blobs = append(tr.blobs, cr.Bytes())
	}
	if err := cr.Finish(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if tr.seq != seq {
		return nil, fmt.Errorf("%s: segment stamps seq %d, manifest says %d: %w", path, tr.seq, seq, errSegCorrupt)
	}
	if !increasing(tr.ids) || !increasing(tr.tombs) {
		return nil, fmt.Errorf("%s: id or tombstone section not strictly increasing: %w", path, errSegCorrupt)
	}
	if n > 0 && (int(tr.ids[0]) < man.BaseN || tr.ids[n-1] >= man.NextID) {
		return nil, fmt.Errorf("%s: ids %d..%d outside the added range [%d, %d): %w", path, tr.ids[0], tr.ids[n-1], man.BaseN, man.NextID, errSegCorrupt)
	}
	if len(tr.tombs) > 0 && tr.tombs[len(tr.tombs)-1] >= man.NextID {
		return nil, fmt.Errorf("%s: tombstone %d at or past next id %d: %w", path, tr.tombs[len(tr.tombs)-1], man.NextID, errSegCorrupt)
	}
	tr.objs = make([]T, n)
	for i, b := range tr.blobs {
		obj, err := decode(b)
		if err != nil {
			return nil, fmt.Errorf("%s: decoding object id %d: %v: %w", path, tr.ids[i], err, errSegCorrupt)
		}
		tr.objs[i] = obj
	}
	return tr, nil
}

// increasing reports whether ids strictly increases.
func increasing(ids []uint32) bool {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return false
		}
	}
	return true
}

// quarantineExt marks a file set aside by recovery: the bytes are kept for
// forensics but the name no longer matches any pattern the tree manages.
const quarantineExt = ".quarantined"

// quarantineTier renames a corrupt tier's segment aside (<name>.quarantined)
// so recovery converges without it while an operator can still inspect the
// damage. Best effort: the manifest has already been rewritten without the
// tier, so even if the rename fails the file is mere debris.
func quarantineTier(fsys vfs.FS, dir string, seq uint64) {
	p := segPath(dir, seq)
	_ = fsys.Rename(p, p+quarantineExt)
	_ = fsys.SyncDir(dir)
}

// manifest is the tiers.json sidecar: the only authority on which files
// constitute the tree.
type manifest struct {
	Version     int          `json:"version"`
	Space       string       `json:"space"`
	BaseN       int          `json:"base_n"`
	NextID      uint32       `json:"next_id"`
	WalSeq      uint64       `json:"wal_seq"`
	NextTierSeq uint64       `json:"next_tier_seq"`
	Tiers       []TierStatus `json:"tiers"`
}

const manifestVersion = 1

// manifestName is the manifest file name inside a tree directory.
const manifestName = "tiers.json"

// writeManifest atomically replaces the manifest. After it returns, recovery
// will see exactly this state.
func writeManifest(fsys vfs.FS, dir string, m *manifest) error {
	return vfs.WriteJSON(fsys, filepath.Join(dir, manifestName), m)
}

// readManifest loads tiers.json; ok is false when the file does not exist.
func readManifest(fsys vfs.FS, dir string) (m *manifest, ok bool, err error) {
	m = new(manifest)
	err = vfs.ReadJSON(fsys, filepath.Join(dir, manifestName), m)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("lsm: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, false, fmt.Errorf("lsm: %s/%s: unsupported manifest version %d", dir, manifestName, m.Version)
	}
	return m, true, nil
}

// removeStale deletes every file in dir that the manifest does not account
// for: segments of unlisted sequence numbers, WAL segments other than the
// current one, and any other plain file. Such files are debris of a crash
// between "write files" and "commit manifest" (or after a commit that
// replaced them) and must not survive, or a later seal reusing the sequence
// number would find them in the way. Quarantined files are the one
// exception: they are kept, deliberately, for the operator.
func removeStale(fsys vfs.FS, dir string, m *manifest) {
	listed := make(map[uint64]bool, len(m.Tiers))
	for _, t := range m.Tiers {
		listed[t.Seq] = true
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || name == manifestName || strings.HasSuffix(name, quarantineExt) {
			continue
		}
		var seq uint64
		switch {
		case matchSeq(name, &seq):
			if !listed[seq] {
				fsys.Remove(filepath.Join(dir, name))
			}
		case matchWal(name, &seq):
			if seq != m.WalSeq {
				fsys.Remove(filepath.Join(dir, name))
			}
		default:
			// Leftover temp files from interrupted atomic writes, and the
			// <seq>.psix files of builds that persisted a tier index.
			fsys.Remove(filepath.Join(dir, name))
		}
	}
}

// matchSeq parses "<seq>.seg" file names.
func matchSeq(name string, seq *uint64) bool {
	_, err := fmt.Sscanf(name, "%d.seg", seq)
	return err == nil && fmt.Sprintf("%06d.seg", *seq) == name
}

// matchWal parses "wal-<seq>.log" file names.
func matchWal(name string, seq *uint64) bool {
	var s uint64
	if _, err := fmt.Sscanf(name, "wal-%d.log", &s); err != nil {
		return false
	}
	if fmt.Sprintf("wal-%06d.log", s) != name {
		return false
	}
	*seq = s
	return true
}
