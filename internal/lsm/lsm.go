// Package lsm makes a served index mutable: a small always-mutable memtable
// absorbs writes in front of a stack of immutable sealed tiers, in the LSM
// style (a small in-memory buffer sealed into geometrically-accumulating
// read-only tiers, merged down by background compaction).
//
// §3.5 of the paper argues permutation inverted files are database-friendly
// because "deletion and addition of records can be easily implemented"; this
// package is that claim made operational for the serving stack. Every write
// is appended to a write-ahead log and fsynced before it is acknowledged, so
// ingest survives kill -9; when the memtable overflows it is sealed into an
// immutable tier — one codec segment holding the raw objects — and queries
// scatter-gather across base + tiers + memtable, merging with the same
// canonical (dist, id) rule that makes sharded answers byte-identical to
// unsharded ones (internal/router). Only the base is an index: the memtable
// and each tier hold a run of added objects, scanned exactly by
// space.Closest, so over an exact base a tiered tree answers
// byte-identically to a single flat index over the same live set.
//
// # Id space and masking
//
// The base corpus owns ids [0, BaseN); added objects are assigned BaseN,
// BaseN+1, ... monotonically, and ids are never reused (the next id to
// assign is persisted in the manifest, so even a fully-deleted-and-compacted
// tree never re-issues an id; once 2^32-2 is assigned, adds are refused). Because ids only grow, a tombstone recorded
// in a tier can only target the base corpus or an older tier — "newer tiers
// mask older ones" reduces to membership in the union of all tombstone
// sets, which Search applies after merging (components are queried with k
// inflated by the tombstone count so masking can never starve the result).
// That union is the tree's one mask: a delete of a memtable object joins it
// too, and the seal drops the object and its mask entry together, so the
// base index and every tier are immutable and the memtable only appends.
package lsm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/scratch"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vfs"
)

// ErrInvalid marks write failures caused by the request itself — an
// undecodable payload, an unknown or already-deleted id, an add past the
// last assignable id — as opposed to storage failures. A serving layer
// answers these 4xx, not 5xx.
var ErrInvalid = errors.New("invalid write")

// lastID is the largest id an add may be assigned: the next id after it,
// math.MaxUint32, is the largest the uint32 counter (and the manifest's
// NextID) can hold, so an id counter that has reached it is exhausted
// instead of wrapping to 0 and re-issuing the base corpus's ids.
const lastID = math.MaxUint32 - 1

// ErrPoisoned marks writes rejected because an earlier WAL write or fsync
// failed. A failed fsync must never be retried — the kernel may already
// have dropped the dirty pages, so a later "successful" sync would
// acknowledge a write that is not on disk (the fsyncgate lesson) — and a
// failed append may have left a torn record mid-log that would silently
// swallow every record appended after it on replay. The only safe move is
// fail-stop: the WAL is poisoned, every subsequent write returns this
// error (HTTP 503), searches keep serving, and re-opening the tree runs
// the normal recovery path over what actually reached disk.
var ErrPoisoned = errors.New("lsm: WAL poisoned by an earlier I/O failure; writes disabled until re-open")

// ErrReadOnly marks writes rejected because a seal or compaction hit a
// storage failure (ENOSPC, a failed rename). The WAL itself is intact and
// every acknowledged write is durable, but the tree cannot safely make new
// tiers, so it degrades to read-only (writes HTTP 507, searches keep
// serving) until it is re-opened — the orphaned files of the failed seal
// are debris the manifest never named, removed on the next recovery.
var ErrReadOnly = errors.New("lsm: tree is read-only after a storage failure; writes disabled until re-open")

// Options configures Open.
type Options[T any] struct {
	// Dir is the tree's private directory (WAL segments, sealed tiers,
	// manifest). Created if absent.
	Dir string
	// Space is the distance space shared with the base index.
	Space space.Space[T]
	// BaseN is the size of the immutable base corpus; added objects are
	// assigned ids starting at BaseN. A tree re-opened over a different
	// BaseN is rejected.
	BaseN int
	// Decode turns the raw wire payload of an added object back into the
	// object. Raw payloads — not decoded objects — are what the WAL and
	// tier segments store, so the same bytes the client sent are re-decoded
	// on every recovery, keeping replay exactly as deterministic as the
	// original ingest.
	Decode func(raw []byte) (T, error)
	// MemtableCap seals the memtable into a tier when its live size
	// reaches this many objects. Default 1024.
	MemtableCap int
	// MaxTiers triggers background compaction when the sealed-tier count
	// exceeds it. Default 4.
	MaxTiers int
	// NoFsync disables the fsync-per-acknowledgement durability barrier.
	// Tests use it for speed; a production tree must keep it false or a
	// crash can lose acknowledged writes.
	NoFsync bool
	// FS is the filesystem every file operation goes through. Default:
	// the real OS filesystem (vfs.OS). Fault tests substitute a
	// faultfs.FS to fail chosen fsyncs, writes and renames.
	FS vfs.FS
}

func (o *Options[T]) defaults() error {
	if o.Dir == "" {
		return fmt.Errorf("lsm: Options.Dir is required")
	}
	if o.Space == nil {
		return fmt.Errorf("lsm: Options.Space is required")
	}
	if o.Decode == nil {
		return fmt.Errorf("lsm: Options.Decode is required")
	}
	if o.BaseN < 0 {
		return fmt.Errorf("lsm: negative BaseN %d", o.BaseN)
	}
	if o.MemtableCap <= 0 {
		o.MemtableCap = 1024
	}
	if o.MaxTiers <= 0 {
		o.MaxTiers = 4
	}
	if o.FS == nil {
		o.FS = vfs.OS{}
	}
	return nil
}

// memtable is the run of the current WAL segment's adds. Deleted entries
// stay in place, hidden by the tree's mask; masked counts them.
type memtable[T any] struct {
	run[T]
	masked int
}

// live is the number of memtable entries the mask does not hide.
func (m *memtable[T]) live() int { return len(m.ids) - m.masked }

// searchScratch is one query's pooled state: the merge buffer, the run
// positions 0…n-1, and the run scans' space.Closest scratch and queue.
type searchScratch struct {
	buf   []topk.Neighbor
	local []uint32
	sp    space.Scratch
	queue topk.Queue
}

// Tree is a mutable tiered index: base corpus (owned by the caller), sealed
// immutable tiers, and a mutable memtable, all sharing one global id space.
// All methods are safe for concurrent use; writes take the write lock, so
// they serialize against searches (the memtable guard).
type Tree[T any] struct {
	opts Options[T]
	fs   vfs.FS

	mu       sync.RWMutex
	mem      *memtable[T]
	tiers    []*tier[T] // ascending seal order (ascending seq)
	deleted  map[uint32]struct{}
	segTombs []uint32 // ids deleted during the current WAL segment
	nextID   uint32
	wal      *wal
	walSeq   uint64
	tierSeq  uint64 // next tier sequence number to assign
	closed   bool

	// Fail-stop state. poisoned and readOnly are sticky until re-open:
	// once a WAL write/fsync fails (poisoned) or a seal/compaction hits a
	// storage error (readOnly), every subsequent write is rejected with
	// the matching sentinel while searches keep serving. lastIOErr is the
	// most recent storage failure, for /statusz. quarantined lists the
	// corrupt tier files recovery renamed aside, one "<file>: <cause>"
	// entry each.
	poisoned    error
	readOnly    error
	lastIOErr   error
	quarantined []string

	compacting bool
	compactErr error
	wg         sync.WaitGroup

	scratch scratch.Pool[searchScratch] // the base index pools its own
}

// Open loads (or initializes) a tree in opts.Dir: manifest, sealed tiers,
// then WAL replay into a fresh memtable. Files the manifest does not name
// are crash debris and are removed. A tier whose bytes fail validation
// (checksum, shape, decode, ids that collide with the base corpus, with a
// tier kept before it or with ids the WAL assigns) is quarantined — dropped
// from the manifest and renamed aside — so one corrupt file does not take
// down the whole tree; a tier whose bytes cannot be *read* (EIO) aborts Open
// cleanly instead, because discarding a possibly-intact file on a transient
// read failure would turn one flaky disk read into permanent data loss.
func Open[T any](opts Options[T]) (*Tree[T], error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	fsys := opts.FS
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	man, ok, err := readManifest(fsys, opts.Dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		man = &manifest{
			Version: manifestVersion,
			Space:   opts.Space.Name(),
			BaseN:   opts.BaseN,
			NextID:  uint32(opts.BaseN),
			WalSeq:  1, NextTierSeq: 1,
		}
		if err := writeManifest(fsys, opts.Dir, man); err != nil {
			return nil, err
		}
	}
	if man.Space != opts.Space.Name() {
		return nil, fmt.Errorf("lsm: %s: tree was created under space %q, Open supplies %q", opts.Dir, man.Space, opts.Space.Name())
	}
	if man.BaseN != opts.BaseN {
		return nil, fmt.Errorf("lsm: %s: tree was created over a base corpus of %d points, Open supplies %d", opts.Dir, man.BaseN, opts.BaseN)
	}

	t := &Tree[T]{
		opts:    opts,
		fs:      fsys,
		mem:     new(memtable[T]),
		nextID:  man.NextID,
		walSeq:  man.WalSeq,
		tierSeq: man.NextTierSeq,
	}
	var quarantine, keptTiers []TierStatus
	var next uint32 // ids below it belong to a tier kept before this one
	for _, mt := range man.Tiers {
		tr, err := readSegment(fsys, opts.Dir, man, mt.Seq, opts.Decode)
		if err == nil && (len(tr.ids) != mt.N || len(tr.tombs) != mt.Tombstones) {
			err = fmt.Errorf("lsm: tier %d holds %d objects / %d tombstones, manifest says %d / %d: %w",
				mt.Seq, len(tr.ids), len(tr.tombs), mt.N, mt.Tombstones, errSegCorrupt)
		}
		if err == nil && len(tr.ids) > 0 && tr.ids[0] < next {
			err = fmt.Errorf("lsm: tier %d starts at id %d, at or below the last id of the tier before it: %w",
				mt.Seq, tr.ids[0], errSegCorrupt)
		}
		if err != nil {
			if !isCorrupt(err) {
				return nil, err
			}
			quarantine = append(quarantine, mt)
			t.quarantined = append(t.quarantined,
				fmt.Sprintf("%06d.seg%s: %v", mt.Seq, quarantineExt, err))
			continue
		}
		if len(tr.ids) > 0 {
			next = tr.ids[len(tr.ids)-1] + 1
		}
		t.tiers = append(t.tiers, tr)
		keptTiers = append(keptTiers, mt)
	}
	t.rebuildMaskLocked()
	if len(quarantine) > 0 {
		// Commit the surviving tier list first, then move the corrupt files
		// aside: if we crash in between, the next recovery sees a manifest
		// that no longer names them and treats them as removable debris —
		// either way the tree converges without ever re-reading bad bytes.
		man.Tiers = keptTiers
		if err := writeManifest(fsys, opts.Dir, man); err != nil {
			return nil, fmt.Errorf("lsm: committing manifest after quarantining %d tiers: %w", len(quarantine), err)
		}
		for _, mt := range quarantine {
			quarantineTier(fsys, opts.Dir, mt.Seq)
		}
	}
	removeStale(fsys, opts.Dir, man)

	w, recs, err := openWAL(fsys, walPath(opts.Dir, man.WalSeq), opts.NoFsync)
	if err != nil {
		return nil, err
	}
	t.wal = w
	walStartID := t.nextID // manifest NextID: the id floor at this WAL's start
	var kept []walRecord
	dropped := 0
	for _, rec := range recs {
		keep, err := t.replay(rec)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("lsm: replaying %s: %w", w.path, err)
		}
		if keep {
			kept = append(kept, rec)
		} else {
			dropped++
		}
	}
	if dropped > 0 {
		// Spent tombstones must not outlive this recovery: the next Open
		// would hit them again (and again), and the "its tier was just
		// quarantined" context that explains them is gone by then. Rotating
		// them out now makes recovery convergent — each Open strictly
		// shrinks the set of anomalies instead of preserving it.
		if err := t.rewriteWAL(kept, walStartID); err != nil {
			t.wal.close()
			return nil, fmt.Errorf("lsm: dropping %d spent WAL tombstones: %w", dropped, err)
		}
	}
	return t, nil
}

// replay applies one recovered WAL record to the in-memory state, exactly
// as the original applyAdd/applyDelete did. It reports whether the record
// is still load-bearing: a delete whose target is already gone — its tier
// was quarantined this recovery, or a crash landed between a quarantining
// manifest commit and the WAL rewrite that follows it — is a spent
// tombstone. The object is equally dead either way, so the record is
// dropped (keep=false) rather than failing recovery over it. Tolerance
// cannot mask a real inconsistency here: every manifest-named tier either
// loaded or aborted/quarantined before replay runs, so a failing delete
// genuinely has no live target.
func (t *Tree[T]) replay(rec walRecord) (keep bool, err error) {
	switch rec.op {
	case walOpAdd:
		if rec.id < t.nextID || rec.id < uint32(t.opts.BaseN) {
			return false, fmt.Errorf("add record reuses id %d (next id %d)", rec.id, t.nextID)
		}
		if rec.id > lastID {
			return false, fmt.Errorf("corrupt add record: id %d is past the last assignable id %d", rec.id, uint32(lastID))
		}
		obj, err := t.opts.Decode(rec.payload)
		if err != nil {
			return false, fmt.Errorf("decoding add record id %d: %w", rec.id, err)
		}
		t.mem.add(rec.id, obj, rec.payload)
		t.nextID = rec.id + 1
	case walOpDelete:
		if err := t.applyDelete(rec.id); err != nil {
			return false, nil
		}
	default:
		return false, fmt.Errorf("unknown record op %d", rec.op)
	}
	return true, nil
}

// rewriteWAL rotates the just-replayed WAL segment to shed records replay
// dropped: the surviving records are written to a fresh segment, the
// manifest commits the new sequence, and only then is the old segment
// removed. A crash at any boundary leaves exactly one manifest-named,
// fully-intact segment — the old one (with its spent tombstones, dropped
// again next time) or the new one. walStartID is the id floor at the WAL's
// start: the kept add records travel into the new segment, so the manifest
// must keep recording the NextID from *before* they were replayed, or the
// next recovery would reject them as id reuse.
func (t *Tree[T]) rewriteWAL(kept []walRecord, walStartID uint32) error {
	newSeq := t.walSeq + 1
	nw, err := createWAL(t.fs, walPath(t.opts.Dir, newSeq), t.opts.NoFsync)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		nw.f.Close()
		t.fs.Remove(nw.path)
		return err
	}
	for _, rec := range kept {
		if err := nw.append(rec.op, rec.id, rec.payload); err != nil {
			return abort(err)
		}
	}
	if err := nw.sync(); err != nil {
		return abort(err)
	}
	replayedTo := t.nextID
	t.nextID = walStartID
	err = t.commitLocked(t.tiers, newSeq)
	t.nextID = replayedTo
	if err != nil {
		return abort(err)
	}
	old := t.wal
	t.wal = nw
	t.walSeq = newSeq
	old.close()
	t.fs.Remove(old.path)
	return nil
}

// BaseN returns the size of the immutable base corpus.
func (t *Tree[T]) BaseN() int { return t.opts.BaseN }

// Space returns the distance space the tree was opened under.
func (t *Tree[T]) Space() space.Space[T] { return t.opts.Space }

// holdsLocked reports whether the tree holds an object under id, masked or
// not: in the base corpus, a tier or the memtable.
func (t *Tree[T]) holdsLocked(id uint32) bool {
	_, ok := t.mem.find(id)
	for i := 0; !ok && i < len(t.tiers); i++ {
		_, ok = t.tiers[i].find(id)
	}
	return ok || int(id) < t.opts.BaseN
}

// isLiveLocked reports whether id currently refers to a live object: one
// the tree holds and the mask does not hide.
func (t *Tree[T]) isLiveLocked(id uint32) bool {
	_, dead := t.deleted[id]
	return !dead && t.holdsLocked(id)
}

// rebuildMaskLocked sets the mask to the tier tombstones and the current
// segment's deletes whose objects the tree still holds. The mask names only
// held objects, which is what lets Live subtract its size: a delete whose
// object a compaction dropped, or whose tier was quarantined, masks nothing.
func (t *Tree[T]) rebuildMaskLocked() {
	t.deleted = make(map[uint32]struct{})
	for _, tr := range t.tiers {
		for _, id := range tr.tombs {
			if t.holdsLocked(id) {
				t.deleted[id] = struct{}{}
			}
		}
	}
	for _, id := range t.segTombs {
		if t.holdsLocked(id) {
			t.deleted[id] = struct{}{}
		}
	}
}

// Add ingests one object from its raw wire payload and returns its global
// id. The write is WAL-appended and fsynced before it returns — an
// acknowledged add survives kill -9.
func (t *Tree[T]) Add(raw []byte) (uint32, error) {
	ids, err := t.AddBatch([][]byte{raw})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// AddBatch ingests a batch of objects with a single durability barrier. All
// payloads are decoded before anything is applied, so a malformed payload
// rejects the whole batch.
func (t *Tree[T]) AddBatch(raws [][]byte) ([]uint32, error) {
	if len(raws) == 0 {
		return nil, nil
	}
	objs := make([]T, len(raws))
	for i, raw := range raws {
		obj, err := t.opts.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("lsm: object %d: %v: %w", i, err, ErrInvalid)
		}
		objs[i] = obj
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.writableLocked(); err != nil {
		return nil, err
	}
	if uint64(t.nextID)+uint64(len(raws))-1 > lastID {
		return nil, fmt.Errorf("lsm: adding %d objects at next id %d would pass the last assignable id %d: %w",
			len(raws), t.nextID, uint32(lastID), ErrInvalid)
	}
	// Append and sync the whole batch before any of it becomes visible:
	// a write that errors to the client is then never served from the
	// memtable of this process. (Its WAL bytes may still be replayed after
	// a re-open — a failed commit's outcome is indeterminate, like any
	// failed commit — but it can never be *served yet errored* in the same
	// process that reported the failure.)
	ids := make([]uint32, len(raws))
	for i, raw := range raws {
		ids[i] = t.nextID + uint32(i)
		if err := t.wal.append(walOpAdd, ids[i], raw); err != nil {
			return nil, t.poisonLocked(fmt.Errorf("WAL append: %w", err))
		}
	}
	if err := t.wal.sync(); err != nil {
		return nil, t.poisonLocked(fmt.Errorf("WAL fsync: %w", err))
	}
	for i, raw := range raws {
		t.mem.add(ids[i], objs[i], slices.Clone(raw))
	}
	t.nextID = ids[len(ids)-1] + 1
	if t.mem.live() >= t.opts.MemtableCap {
		if _, err := t.sealLocked(); err != nil {
			// The writes themselves are durable and acknowledged; a failed
			// seal only means the memtable stays mutable. Surface it.
			return ids, fmt.Errorf("lsm: sealing full memtable: %w", err)
		}
	}
	return ids, nil
}

// Delete tombstones one live object.
func (t *Tree[T]) Delete(id uint32) error {
	return t.DeleteBatch([]uint32{id})
}

// DeleteBatch tombstones a batch of live objects with a single durability
// barrier. Every id must name a distinct live object, or the whole batch is
// rejected before anything is applied.
func (t *Tree[T]) DeleteBatch(ids []uint32) error {
	if len(ids) == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.writableLocked(); err != nil {
		return err
	}
	seen := make(map[uint32]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("lsm: duplicate id %d in delete batch: %w", id, ErrInvalid)
		}
		seen[id] = struct{}{}
		if !t.isLiveLocked(id) {
			return fmt.Errorf("lsm: id %d is unknown or already deleted: %w", id, ErrInvalid)
		}
	}
	for _, id := range ids {
		if err := t.wal.append(walOpDelete, id, nil); err != nil {
			return t.poisonLocked(fmt.Errorf("WAL append: %w", err))
		}
	}
	if err := t.wal.sync(); err != nil {
		return t.poisonLocked(fmt.Errorf("WAL fsync: %w", err))
	}
	for _, id := range ids {
		if err := t.applyDelete(id); err != nil {
			return err
		}
	}
	return nil
}

// applyDelete masks one live object: its id joins the mask and the current
// WAL segment's deletes. A memtable object stays in the memtable, hidden by
// the mask, until the seal drops both (no tombstone is ever persisted for
// it).
func (t *Tree[T]) applyDelete(id uint32) error {
	if !t.isLiveLocked(id) {
		return fmt.Errorf("lsm: id %d is unknown or already deleted", id)
	}
	if _, ok := t.mem.find(id); ok {
		t.mem.masked++
	}
	t.deleted[id] = struct{}{}
	t.segTombs = append(t.segTombs, id)
	return nil
}

// writableLocked rejects writes on a closed, poisoned or read-only tree.
func (t *Tree[T]) writableLocked() error {
	if t.closed {
		return fmt.Errorf("lsm: tree is closed")
	}
	if t.poisoned != nil {
		return fmt.Errorf("%w (cause: %v)", ErrPoisoned, t.poisoned)
	}
	if t.readOnly != nil {
		return fmt.Errorf("%w (cause: %v)", ErrReadOnly, t.readOnly)
	}
	if t.wal == nil {
		return fmt.Errorf("lsm: tree lost its WAL to an earlier seal failure; re-open to recover")
	}
	return nil
}

// poisonLocked records a WAL I/O failure and flips the tree into the
// poisoned state (see ErrPoisoned). It returns the error the failing write
// should surface to its client, already carrying the sentinel so the
// serving layer maps it to 503 without special-casing the first failure.
func (t *Tree[T]) poisonLocked(cause error) error {
	if t.poisoned == nil {
		t.poisoned = cause
	}
	t.lastIOErr = cause
	return fmt.Errorf("%w (cause: %v)", ErrPoisoned, cause)
}

// degradeLocked records a seal/compaction storage failure and flips the
// tree read-only (see ErrReadOnly), returning the error to surface.
func (t *Tree[T]) degradeLocked(cause error) error {
	if t.readOnly == nil {
		t.readOnly = cause
	}
	t.lastIOErr = cause
	return fmt.Errorf("%w (cause: %v)", ErrReadOnly, cause)
}

// Flush seals the memtable into a tier regardless of fill level. It returns
// the sealed tier's summary, or nil if there was nothing to seal.
func (t *Tree[T]) Flush() (*TierStatus, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.writableLocked(); err != nil {
		return nil, err
	}
	return t.sealLocked()
}

// Unsealed returns the number of WAL records the current segment holds —
// the writes that only the WAL makes durable until the next seal. The
// serving layer gates hot reload on this being zero.
func (t *Tree[T]) Unsealed() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.wal == nil {
		return 0
	}
	return t.wal.records
}

// sealLocked rotates the current WAL segment into an immutable tier:
// segment file, manifest commit, fresh memtable and WAL — in that order, so
// a crash at any boundary recovers to either the pre-seal or post-seal
// state with no acknowledged write lost. Masked memtable objects are
// dropped; only deletes of older objects are written as tombstones.
func (t *Tree[T]) sealLocked() (*TierStatus, error) {
	if t.wal.records == 0 {
		return nil, nil
	}
	tr := &tier[T]{seq: t.tierSeq}
	for local, gid := range t.mem.ids {
		if _, dead := t.deleted[gid]; dead {
			continue // added and deleted within this segment: never persisted
		}
		tr.add(gid, t.mem.objs[local], t.mem.blobs[local])
	}
	for _, id := range t.segTombs {
		if _, ok := t.mem.find(id); !ok {
			tr.tombs = append(tr.tombs, id)
		}
	}
	slices.Sort(tr.tombs)

	newWalSeq := t.walSeq + 1
	if len(tr.ids) == 0 && len(tr.tombs) == 0 {
		// Everything in this segment cancelled out. No tier to write; just
		// rotate the WAL so replay stays bounded. The manifest still
		// commits NextID: even fully-cancelled ids are never reused.
		if err := t.commitLocked(t.tiers, newWalSeq); err != nil {
			return nil, t.degradeLocked(fmt.Errorf("committing WAL rotation: %w", err))
		}
		return nil, t.rotateWalLocked(newWalSeq)
	}

	if err := writeSegment(t.fs, t.opts.Dir, t.opts.Space.Name(), tr); err != nil {
		return nil, t.degradeLocked(fmt.Errorf("writing tier %d segment: %w", tr.seq, err))
	}
	t.tierSeq++
	if err := t.commitLocked(append(slices.Clone(t.tiers), tr), newWalSeq); err != nil {
		t.tierSeq-- // manifest unchanged; the orphaned files are debris
		return nil, t.degradeLocked(fmt.Errorf("committing tier %d: %w", tr.seq, err))
	}
	t.tiers = append(t.tiers, tr)
	if err := t.rotateWalLocked(newWalSeq); err != nil {
		return nil, err
	}
	t.maybeCompactLocked()
	st := tierStatusOf(tr)
	return &st, nil
}

// commitLocked writes the manifest reflecting the given tier list and WAL
// sequence plus the tree's current counters — the atomic commit point of
// seal, rotation and compaction.
func (t *Tree[T]) commitLocked(tiers []*tier[T], walSeq uint64) error {
	man := &manifest{
		Version:     manifestVersion,
		Space:       t.opts.Space.Name(),
		BaseN:       t.opts.BaseN,
		NextID:      t.nextID,
		WalSeq:      walSeq,
		NextTierSeq: t.tierSeq,
	}
	for _, tr := range tiers {
		man.Tiers = append(man.Tiers, tierStatusOf(tr))
	}
	return writeManifest(t.fs, t.opts.Dir, man)
}

// rotateWalLocked switches to the (already-committed) new WAL segment. The
// old segment's contents are fully covered by the just-sealed tier, so the
// memtable, the mask entries of its deleted objects and the segment's
// deletes are dropped, and the old file is closed and removed. The state is
// reset before the new file is created: the manifest already names the new
// tier and segment, so a failed create must not leave the sealed objects
// served twice or a stale segment number for a later compaction to commit.
func (t *Tree[T]) rotateWalLocked(newWalSeq uint64) error {
	for _, id := range t.segTombs {
		if _, ok := t.mem.find(id); ok {
			delete(t.deleted, id)
		}
	}
	t.mem = new(memtable[T])
	t.segTombs = nil
	t.walSeq = newWalSeq
	old := t.wal
	w, err := createWAL(t.fs, walPath(t.opts.Dir, newWalSeq), t.opts.NoFsync)
	if err != nil {
		// Without the new segment the tree cannot write (reads are
		// unaffected), so it poisons itself. Re-opening recovers: openWAL
		// creates the missing file.
		t.wal = nil
		old.close()
		return t.poisonLocked(fmt.Errorf("creating WAL segment %d: %w", newWalSeq, err))
	}
	t.wal = w
	old.close()
	t.fs.Remove(old.path)
	return nil
}

// maybeCompactLocked starts a background compaction when the tier stack is
// deep enough and none is already running. The compaction job snapshots the
// current tiers and tombstone set; seals may append new tiers concurrently
// (only compaction ever removes tiers, and it is single-flight, so the
// snapshot stays a stable prefix of the live list).
func (t *Tree[T]) maybeCompactLocked() {
	if t.compacting || t.closed || len(t.tiers) <= t.opts.MaxTiers {
		return
	}
	if t.readOnly != nil || t.poisoned != nil {
		// A degraded store must not keep launching compactions that write
		// to the same failing disk; the backlog drains after re-open.
		return
	}
	inputs := slices.Clone(t.tiers)
	dead := make(map[uint32]struct{}, len(t.deleted))
	for id := range t.deleted {
		dead[id] = struct{}{}
	}
	seq := t.tierSeq
	t.tierSeq++
	t.compacting = true
	t.wg.Add(1)
	go t.compact(inputs, dead, seq)
}

// compact merges the input tiers into one: objects deleted by the
// snapshotted tombstone set are dropped, surviving objects keep their ids,
// and only tombstones still targeting the base corpus are carried forward
// (a tombstone for an added object either just dropped its target or
// targets nothing — either way it is spent). The merge is one pass over at
// most (MaxTiers+1)·MemtableCap ids and runs off the lock; the commit
// (manifest + in-memory swap) retakes it.
func (t *Tree[T]) compact(inputs []*tier[T], dead map[uint32]struct{}, seq uint64) {
	defer t.wg.Done()
	fail := func(err error) {
		t.mu.Lock()
		t.compactErr = err
		t.compacting = false
		t.mu.Unlock()
	}
	// failIO is fail for storage failures: beyond recording the error it
	// flips the tree read-only — a store that cannot write tiers must stop
	// accepting writes it will never be able to seal. The half-written
	// output files are debris the manifest never named; the next recovery
	// removes them.
	failIO := func(err error) {
		t.mu.Lock()
		t.degradeLocked(err)
		t.compactErr = err
		t.compacting = false
		t.mu.Unlock()
	}
	defer func() {
		if r := recover(); r != nil {
			fail(fmt.Errorf("lsm: compaction panicked: %v", r))
		}
	}()

	tr := &tier[T]{seq: seq}
	for _, in := range inputs {
		for j, id := range in.ids {
			if _, d := dead[id]; !d {
				tr.add(id, in.objs[j], in.blobs[j])
			}
		}
		for _, id := range in.tombs {
			if int(id) < t.opts.BaseN {
				tr.tombs = append(tr.tombs, id)
			}
		}
	}
	slices.Sort(tr.tombs)
	tr.tombs = slices.Compact(tr.tombs)

	merged := tr
	if len(tr.ids) == 0 && len(tr.tombs) == 0 {
		merged = nil // everything died; the inputs are replaced by nothing
	} else {
		if err := writeSegment(t.fs, t.opts.Dir, t.opts.Space.Name(), tr); err != nil {
			failIO(fmt.Errorf("lsm: writing compacted segment: %w", err))
			return
		}
	}

	t.mu.Lock()
	var newTiers []*tier[T]
	if merged != nil {
		newTiers = append(newTiers, merged)
	}
	newTiers = append(newTiers, t.tiers[len(inputs):]...)
	if err := t.commitLocked(newTiers, t.walSeq); err != nil {
		t.degradeLocked(fmt.Errorf("lsm: committing compaction: %w", err))
		t.compactErr = err
		t.compacting = false
		t.mu.Unlock()
		return
	}
	t.tiers = newTiers
	// Entries whose targets were just dropped leave the mask here — those
	// of the current segment's deletes and of tiers sealed while this cycle
	// ran included — so Live stays exact and the k-inflation the mask
	// drives stays proportional to real masking work.
	t.rebuildMaskLocked()
	t.compactErr = nil
	t.mu.Unlock()

	// Delete input files outside the lock, and only then clear the
	// compacting flag: Compacting == false promises the whole cycle —
	// including disk GC — is done, which recovery tests and operators rely
	// on. The manifest no longer names these files, so a crash here just
	// leaves debris for removeStale.
	for _, in := range inputs {
		t.fs.Remove(segPath(t.opts.Dir, in.seq))
	}
	t.mu.Lock()
	t.compacting = false
	// Seals that landed while this cycle ran were skipped by
	// maybeCompactLocked; re-check here so the tree converges to
	// <= MaxTiers instead of settling wherever the race left it.
	t.maybeCompactLocked()
	t.mu.Unlock()
}

// SearchAppend answers a query over the live set: base corpus (searched
// through the supplied immutable base index, nil for a base-less tree) plus
// sealed tiers plus memtable, masked by the tombstone union and merged with
// the canonical (dist, id) rule, appended to dst. Each component is queried
// with k inflated by the mask size, so masking can never push a live answer
// out of reach: the merged result is exactly what a flat index over the
// live set would return when every component searches exactly.
//
// opts.Params reach the base index only; tiers and memtable are exact scans
// that take none. opts.Ctx is checked between component searches (base,
// each tier, memtable), so a query its client has abandoned stops
// scattering instead of running every remaining component to completion;
// on cancellation dst is returned unchanged alongside the ctx error. When
// opts.Trace is non-nil the time spent in the base index, the sealed tiers,
// the memtable, the tombstone masking pass and the final merge is recorded
// into it, alongside the base index's stage detail and each run scan's
// refine distances, refine and merge time.
//
// The whole merge — per-component searches, id translation, tombstone
// masking, top-k selection — runs on one pooled searchScratch (and the base
// index's own), so a warm call with a dst of sufficient capacity performs
// zero allocations, traced or not.
func (t *Tree[T]) SearchAppend(dst []topk.Neighbor, base index.Index[T], query T, opts index.Options) ([]topk.Neighbor, error) {
	k, tr := opts.K, opts.Trace
	if k <= 0 {
		return dst, nil
	}
	if err := opts.Err(); err != nil {
		return dst, err
	}
	s := t.scratch.Get()
	defer t.scratch.Put(s)
	t.mu.RLock()
	defer t.mu.RUnlock()
	sub := opts
	sub.K = k + len(t.deleted)
	buf := s.buf[:0]
	// Keep the (possibly regrown) buffer for the next query; it is pooled
	// and must never escape to the caller.
	defer func() { s.buf = buf[:0] }()
	var t0 time.Time
	if base != nil {
		if tr != nil {
			tr.Components++
			t0 = time.Now()
		}
		buf = base.SearchAppend(buf, query, sub)
		if tr != nil {
			obs.AddSince(&tr.BaseNs, t0)
		}
	}
	for _, tier := range t.tiers {
		if len(tier.objs) == 0 {
			continue
		}
		if err := opts.Err(); err != nil {
			return dst, err
		}
		if tr != nil {
			tr.Components++
			t0 = time.Now()
		}
		buf = tier.search(t.opts.Space, s, buf, query, sub.K, tr)
		if tr != nil {
			obs.AddSince(&tr.TierNs, t0)
		}
	}
	if err := opts.Err(); err != nil {
		return dst, err
	}
	if tr != nil {
		tr.Components++
		t0 = time.Now()
	}
	buf = t.mem.search(t.opts.Space, s, buf, query, sub.K, tr)
	if tr != nil {
		obs.AddSince(&tr.MemtableNs, t0)
	}
	if len(t.deleted) > 0 {
		if tr != nil {
			t0 = time.Now()
		}
		kept := buf[:0]
		for _, nb := range buf {
			if _, dead := t.deleted[nb.ID]; !dead {
				kept = append(kept, nb)
			}
		}
		buf = kept
		if tr != nil {
			obs.AddSince(&tr.MaskNs, t0)
		}
	}
	if tr != nil {
		t0 = time.Now()
	}
	dst = append(dst, topk.SelectK(buf, k)...)
	if tr != nil {
		obs.AddSince(&tr.MergeNs, t0)
	}
	return dst, nil
}

// TierStatus summarizes one sealed tier: its row in tiers.json, in /statusz
// and in the /flush response.
type TierStatus struct {
	Seq        uint64 `json:"seq"`
	N          int    `json:"n"`
	Tombstones int    `json:"tombstones"`
}

func tierStatusOf[T any](tr *tier[T]) TierStatus {
	return TierStatus{Seq: tr.seq, N: len(tr.ids), Tombstones: len(tr.tombs)}
}

// Storage states a tree reports in Status.State.
const (
	// StateOK: the tree is fully serving — reads and writes.
	StateOK = "ok"
	// StatePoisoned: a WAL write or fsync failed; writes return
	// ErrPoisoned (503), searches keep serving. Re-open to recover.
	StatePoisoned = "poisoned"
	// StateReadOnly: a seal or compaction hit a storage failure; writes
	// return ErrReadOnly (507), searches keep serving. Re-open to recover.
	StateReadOnly = "read-only"
)

// Status is a point-in-time snapshot of the tree's shape.
type Status struct {
	BaseN        int          `json:"base_n"`
	NextID       uint32       `json:"next_id"`
	Live         int          `json:"live"`
	MemtableLive int          `json:"memtable_live"`
	MemtableCap  int          `json:"memtable_cap"`
	Deleted      int          `json:"deleted"`
	WalSeq       uint64       `json:"wal_seq"`
	WalRecords   int          `json:"wal_records"`
	WalBytes     int64        `json:"wal_bytes"`
	Tiers        []TierStatus `json:"tiers"`
	Compacting   bool         `json:"compacting,omitempty"`
	CompactErr   string       `json:"compact_err,omitempty"`
	// State is the storage state: StateOK, StatePoisoned or StateReadOnly.
	State string `json:"state"`
	// LastIOError is the most recent storage failure, empty when none.
	LastIOError string `json:"last_io_error,omitempty"`
	// Quarantined lists corrupt tier files recovery renamed aside
	// ("<file>: <cause>"), empty when the last recovery was clean.
	Quarantined []string `json:"quarantined,omitempty"`
}

// Degraded reports whether the tree is serving in a degraded state —
// poisoned, read-only, or carrying quarantined tiers — and why. An empty
// slice means fully healthy; /healthz surfaces the reasons.
func (s *Status) Degraded() []string {
	var reasons []string
	if s.State != StateOK {
		reasons = append(reasons, "storage "+s.State)
	}
	if len(s.Quarantined) > 0 {
		reasons = append(reasons, fmt.Sprintf("%d quarantined tiers", len(s.Quarantined)))
	}
	return reasons
}

// Status reports the tree's current shape.
func (t *Tree[T]) Status() Status {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := Status{
		BaseN:        t.opts.BaseN,
		NextID:       t.nextID,
		MemtableLive: t.mem.live(),
		MemtableCap:  t.opts.MemtableCap,
		Deleted:      len(t.deleted),
		WalSeq:       t.walSeq,
		Compacting:   t.compacting,
		State:        StateOK,
		Quarantined:  t.quarantined,
	}
	switch {
	case t.poisoned != nil:
		st.State = StatePoisoned
	case t.readOnly != nil:
		st.State = StateReadOnly
	}
	if t.lastIOErr != nil {
		st.LastIOError = t.lastIOErr.Error()
	}
	if t.wal != nil {
		st.WalRecords = t.wal.records
		st.WalBytes = t.wal.size
	}
	if t.compactErr != nil {
		st.CompactErr = t.compactErr.Error()
	}
	for _, tr := range t.tiers {
		st.Tiers = append(st.Tiers, tierStatusOf(tr))
	}
	st.Live = t.liveLocked()
	return st
}

// Live returns the number of live objects (Status().Live) without building
// a Status: cheap enough to call per search.
func (t *Tree[T]) Live() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.liveLocked()
}

func (t *Tree[T]) liveLocked() int {
	live := t.opts.BaseN + len(t.mem.ids) - len(t.deleted)
	for _, tr := range t.tiers {
		live += len(tr.ids)
	}
	return live
}

// LiveIDs returns the ascending global ids of every live object (base,
// tiers and memtable). It exists for identity testing — a flat reference
// index is built over exactly these objects — and for offline tooling; it
// allocates freely and is not a serving path.
func (t *Tree[T]) LiveIDs() []uint32 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var ids []uint32
	for id := 0; id < t.opts.BaseN; id++ {
		if _, dead := t.deleted[uint32(id)]; !dead {
			ids = append(ids, uint32(id))
		}
	}
	for _, tr := range t.tiers {
		for _, id := range tr.ids {
			if _, dead := t.deleted[id]; !dead {
				ids = append(ids, id)
			}
		}
	}
	for _, id := range t.mem.ids {
		if _, dead := t.deleted[id]; !dead {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Object returns the live object with the given added-object id (ids below
// BaseN live in the caller's base corpus). Testing/tooling path.
func (t *Tree[T]) Object(id uint32) (T, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var zero T
	if _, dead := t.deleted[id]; dead {
		return zero, false
	}
	if i, ok := t.mem.find(id); ok {
		return t.mem.objs[i], true
	}
	for _, tr := range t.tiers {
		if i, ok := tr.find(id); ok {
			return tr.objs[i], true
		}
	}
	return zero, false
}

// Close waits for background compaction and closes the WAL. Unsealed writes
// stay in the WAL segment and are replayed by the next Open; Close does not
// seal (a crash and a clean shutdown recover identically, which keeps the
// recovery path continuously exercised).
func (t *Tree[T]) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	t.wg.Wait()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wal == nil {
		return nil
	}
	err := t.wal.close()
	t.wal = nil
	return err
}
