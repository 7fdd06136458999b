package lsm

// The fail-stop contract, exhaustively: inject one storage fault at EVERY
// injectable call site across a fixed add/delete/flush/compact script and
// assert, for each resulting tree, that
//
//   - every acknowledged write is durable and searchable after re-open,
//   - every errored write is either absent or was errored to the client
//     (never served as a success in the process that reported the failure),
//   - searches never answer inconsistently (identity vs. a flat exact scan
//     over the live set holds before and after the reboot), and
//   - the tree ends in exactly one of {consistent, poisoned, read-only},
//     with quarantine reserved for corrupt bytes (its own test below).
//
// The sweep enumerates the sites with one fault-free run and then replays
// the script once per (site, failure kind): EIO, ENOSPC, a short (torn)
// write, and crash-after-success.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/space"
	"repro/internal/vfs"
)

// faultScriptResult is the client's-eye view of one script run: which
// writes were acknowledged, which errored, and what the tree looked like
// when the dust settled.
type faultScriptResult struct {
	tree      *Tree[[]float32] // nil when Open itself failed
	openErr   error
	ackedAdds map[uint32][]byte   // id -> payload, as acknowledged to the client
	ackedDels map[uint32]struct{} // ids whose delete was acknowledged
	// errAddLo/Hi is the would-be id range [lo, hi) of the storage-errored
	// add batch (at most one exists: the first storage error makes the tree
	// sticky-unwritable). Ids in this range may or may not survive a reboot
	// — a failed commit's outcome is indeterminate — but must never have
	// been served pre-reboot.
	errAddLo, errAddHi uint32
	// errDelTargets are ids a storage-errored delete batch targeted; their
	// post-reboot liveness is likewise indeterminate.
	errDelTargets map[uint32]struct{}
	storageErrs   []error
}

// faultScriptOptions is the one tree configuration the whole sweep uses:
// durability on (fsync sites must be injectable) and a tier cap low enough
// that the script's third seal triggers compaction.
func faultScriptOptions(dir string, fsys vfs.FS, baseN int) Options[[]float32] {
	return Options[[]float32]{
		Dir:      dir,
		FS:       fsys,
		Space:    space.L2{},
		BaseN:    baseN,
		Decode:   decVec,
		MaxTiers: 2,
	}
}

// waitCompactDone polls until no compaction is running; background
// compaction I/O must finish before the next scripted op so the sweep's
// call numbering is deterministic.
func waitCompactDone(t *testing.T, tr *Tree[[]float32]) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if !tr.Status().Compacting {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("compaction did not finish")
}

// runFaultScript drives the fixed mutation script against a tree on fsys,
// recording per-op outcomes. Storage errors do not stop the script — later
// ops exercise the sticky poisoned/read-only rejection — but ErrInvalid
// rejections (targets vanished because an earlier op errored) are no-ops.
func runFaultScript(t *testing.T, fsys vfs.FS, dir string, base [][]float32) *faultScriptResult {
	t.Helper()
	res := &faultScriptResult{
		ackedAdds:     map[uint32][]byte{},
		ackedDels:     map[uint32]struct{}{},
		errDelTargets: map[uint32]struct{}{},
	}
	tree, err := Open(faultScriptOptions(dir, fsys, len(base)))
	if err != nil {
		res.openErr = err
		return res
	}
	res.tree = tree

	next := uint32(len(base)) // the id the next add batch starts at
	add := func(vecs [][]float32) {
		payloads := make([][]byte, len(vecs))
		for i, v := range vecs {
			payloads[i] = encVec(v)
		}
		ids, err := tree.AddBatch(payloads)
		if ids != nil {
			// Acknowledged (err, if any, is a seal-failure warning; the
			// writes themselves are durable).
			for i, id := range ids {
				res.ackedAdds[id] = payloads[i]
			}
			next = ids[len(ids)-1] + 1
		}
		if err != nil && !errors.Is(err, ErrInvalid) {
			res.storageErrs = append(res.storageErrs, err)
			if ids == nil && res.errAddLo == res.errAddHi {
				res.errAddLo, res.errAddHi = next, next+uint32(len(vecs))
			}
		}
	}
	// liveModel reports whether id is live per the acknowledged history.
	liveModel := func(id uint32) bool {
		if _, dead := res.ackedDels[id]; dead {
			return false
		}
		if int(id) < len(base) {
			return true
		}
		_, ok := res.ackedAdds[id]
		return ok
	}
	del := func(ids []uint32) {
		var targets []uint32
		for _, id := range ids {
			if liveModel(id) {
				targets = append(targets, id)
			}
		}
		if len(targets) == 0 {
			return
		}
		err := tree.DeleteBatch(targets)
		switch {
		case err == nil:
			for _, id := range targets {
				res.ackedDels[id] = struct{}{}
			}
		case errors.Is(err, ErrInvalid):
			// Model/tree divergence can only come from an earlier fault.
		default:
			res.storageErrs = append(res.storageErrs, err)
			for _, id := range targets {
				res.errDelTargets[id] = struct{}{}
			}
		}
	}
	flush := func() {
		if _, err := tree.Flush(); err != nil && !errors.Is(err, ErrInvalid) {
			res.storageErrs = append(res.storageErrs, err)
		}
		waitCompactDone(t, tree)
	}

	A := randVecs(7, 12)
	add(A[0:3])
	flush() // tier 1
	add(A[3:6])
	del([]uint32{1, uint32(len(base))}) // one base id, the first added id
	flush()                             // tier 2
	add(A[6:9])
	flush() // tier 3 > MaxTiers: compaction
	add(A[9:12])
	del([]uint32{0, uint32(len(base)) + 4}) // unsealed tail: WAL-only records
	return res
}

// verifyLiveSet checks the recovered tree against the acknowledged history:
// acked adds present with their exact payloads (unless an errored delete
// makes them indeterminate), acked deletes absent, and nothing live beyond
// the base corpus, the acked adds and the indeterminate errored-add range.
func verifyLiveSet(t *testing.T, tr *Tree[[]float32], baseN int, res *faultScriptResult, label string) {
	t.Helper()
	live := map[uint32]struct{}{}
	for _, id := range tr.LiveIDs() {
		live[id] = struct{}{}
	}
	for id, payload := range res.ackedAdds {
		if _, dead := res.ackedDels[id]; dead {
			continue
		}
		if _, indet := res.errDelTargets[id]; indet {
			continue
		}
		if _, ok := live[id]; !ok {
			t.Fatalf("%s: acknowledged add id %d lost", label, id)
		}
		obj, ok := tr.Object(id)
		if !ok {
			t.Fatalf("%s: acked id %d live but has no object", label, id)
		}
		want, err := decVec(payload)
		if err != nil || !slices.Equal(obj, want) {
			t.Fatalf("%s: acked id %d recovered wrong object %v, want %v", label, id, obj, want)
		}
	}
	for id := range res.ackedDels {
		if _, ok := live[id]; ok {
			t.Fatalf("%s: acknowledged delete of id %d did not stick", label, id)
		}
	}
	for id := range live {
		if int(id) < baseN {
			continue
		}
		_, acked := res.ackedAdds[id]
		if !acked && !(id >= res.errAddLo && id < res.errAddHi) {
			t.Fatalf("%s: live id %d was never acknowledged (errored range [%d,%d))",
				label, id, res.errAddLo, res.errAddHi)
		}
	}
}

// runOneFaultedScript executes the script under one armed rule and asserts
// the whole fail-stop contract: in-process visibility, sticky rejection,
// state machine, and post-reboot durability + identity.
func runOneFaultedScript(t *testing.T, rule faultfs.Rule, site faultfs.Call, label string, base [][]float32) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "tree")
	ffs := faultfs.New(nil)
	ffs.Inject(rule)
	res := runFaultScript(t, ffs, dir, base)

	if res.tree != nil {
		tree := res.tree
		// In-process: nothing unacknowledged may be served.
		for _, id := range tree.LiveIDs() {
			if int(id) >= len(base) {
				if _, acked := res.ackedAdds[id]; !acked {
					t.Fatalf("%s: errored write id %d is being served pre-reboot", label, id)
				}
			}
		}
		st := tree.Status()
		if len(res.storageErrs) > 0 {
			// The state machine must have latched exactly one degraded mode,
			// writes must stay rejected with the matching sentinel, and
			// searches must keep serving.
			if st.State != StatePoisoned && st.State != StateReadOnly {
				t.Fatalf("%s: storage errors %v but state %q", label, res.storageErrs, st.State)
			}
			_, err := tree.AddBatch([][]byte{encVec(randVecs(13, 1)[0])})
			switch {
			case err == nil:
				t.Fatalf("%s: degraded tree accepted a write", label)
			case st.State == StatePoisoned && !errors.Is(err, ErrPoisoned):
				t.Fatalf("%s: poisoned tree rejected write with %v, want ErrPoisoned", label, err)
			case st.State == StateReadOnly && !errors.Is(err, ErrReadOnly):
				t.Fatalf("%s: read-only tree rejected write with %v, want ErrReadOnly", label, err)
			}
			if st.LastIOError == "" {
				t.Fatalf("%s: degraded tree reports no last_io_error", label)
			}
		} else if st.State != StateOK {
			t.Fatalf("%s: no client-visible storage error but state %q (%s)", label, st.State, st.LastIOError)
		}
		checkIdentity(t, tree, base, label+" pre-reboot")
		tree.Close() // best effort on a faulted fs
	}

	// Reboot on a healthy disk: recovery must converge with no corruption
	// (write faults tear nothing that the manifest names) and the
	// acknowledged history must hold.
	reopened, err := Open(faultScriptOptions(dir, nil, len(base)))
	if err != nil {
		t.Fatalf("%s: re-open after reboot failed: %v", label, err)
	}
	defer reopened.Close()
	if st := reopened.Status(); st.State != StateOK || len(st.Quarantined) != 0 {
		t.Fatalf("%s: rebooted tree state %q, quarantined %v", label, st.State, st.Quarantined)
	}
	verifyLiveSet(t, reopened, len(base), res, label+" post-reboot")
	checkIdentity(t, reopened, base, label+" post-reboot")
}

// TestFaultSweepWriteSites is the keystone sweep over every write-path
// site: create, write, fsync, directory fsync and rename, each failed with
// EIO, ENOSPC, a short write, and crash-after-success.
func TestFaultSweepWriteSites(t *testing.T) {
	base := randVecs(1, 6)

	// Fault-free enumeration run: counts the injectable write sites and
	// pins the baseline behavior the faulted runs diverge from.
	probe := faultfs.New(nil)
	dir := filepath.Join(t.TempDir(), "tree")
	res := runFaultScript(t, probe, dir, base)
	if res.tree == nil {
		t.Fatalf("fault-free open failed: %v", res.openErr)
	}
	if len(res.storageErrs) != 0 {
		t.Fatalf("fault-free run saw storage errors: %v", res.storageErrs)
	}
	checkIdentity(t, res.tree, base, "fault-free")
	res.tree.Close()

	var writeSites []faultfs.Call
	for _, c := range probe.Calls() {
		if slices.Contains(faultfs.WriteOps(), c.Op) {
			writeSites = append(writeSites, c)
		}
	}
	if len(writeSites) < 30 {
		t.Fatalf("only %d write sites enumerated; script no longer covers the pipeline", len(writeSites))
	}
	t.Logf("sweeping %d write sites", len(writeSites))

	kinds := []struct {
		name string
		rule func(n int) faultfs.Rule
	}{
		{"eio", func(n int) faultfs.Rule {
			return faultfs.Rule{Ops: faultfs.WriteOps(), Nth: n, Err: syscall.EIO}
		}},
		{"enospc", func(n int) faultfs.Rule {
			return faultfs.Rule{Ops: faultfs.WriteOps(), Nth: n, Err: syscall.ENOSPC}
		}},
		{"short", func(n int) faultfs.Rule {
			return faultfs.Rule{Ops: faultfs.WriteOps(), Nth: n, Err: syscall.ENOSPC, Short: true}
		}},
		{"crash", func(n int) faultfs.Rule {
			return faultfs.Rule{Ops: faultfs.WriteOps(), Nth: n, Crash: true}
		}},
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.name, func(t *testing.T) {
			t.Parallel()
			for i := 1; i <= len(writeSites); i += stride {
				site := writeSites[i-1]
				label := fmt.Sprintf("%s@%d(%s %s)", kind.name, i, site.Op, filepath.Base(site.Path))
				runOneFaultedScript(t, kind.rule(i), site, label, base)
			}
		})
	}
}

// TestFailedWALRotation fails the create of the WAL segment a seal rotates
// to, after the manifest has committed the new tier. The poisoned tree must
// serve each sealed object once, from the tier, and carry the committed
// segment number (the one a later compaction writes back); a clean re-open
// serves the same live set.
func TestFailedWALRotation(t *testing.T) {
	base := randVecs(1, 6)
	dir := filepath.Join(t.TempDir(), "tree")
	ffs := faultfs.New(nil)
	ffs.Inject(faultfs.Rule{Ops: []faultfs.Op{faultfs.OpCreate}, PathContains: "wal-000002", Nth: 1, Err: syscall.EIO})
	tree, err := Open(faultScriptOptions(dir, ffs, len(base)))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range randVecs(7, 3) {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tree.Flush(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Flush with a failing WAL create = %v, want ErrPoisoned", err)
	}
	st := tree.Status()
	if st.State != StatePoisoned || st.WalSeq != 2 || st.Live != 9 || st.MemtableLive != 0 || len(st.Tiers) != 1 {
		t.Fatalf("status after the failed rotation: %+v", st)
	}
	checkIdentity(t, tree, base, "after the failed rotation")
	want := tree.LiveIDs()
	tree.Close()

	re, err := Open(faultScriptOptions(dir, nil, len(base)))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.LiveIDs(); !slices.Equal(got, want) {
		t.Fatalf("live set after re-open %v, want %v", got, want)
	}
	checkIdentity(t, re, base, "re-opened")
}

// copyTreeDir clones a tree directory so each read-sweep iteration opens a
// pristine copy (a failing Open may still have truncated a WAL tail or
// removed debris).
func copyTreeDir(t *testing.T, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "tree")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// buildRecoveryFixture populates a tree directory with sealed tiers,
// tombstones and an unsealed WAL tail, then closes it.
func buildRecoveryFixture(t *testing.T, dir string, base [][]float32) []uint32 {
	t.Helper()
	opts := faultScriptOptions(dir, nil, len(base))
	opts.NoFsync = true
	opts.MaxTiers = 8 // no compaction: a fixed file set
	tree, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	A := randVecs(21, 8)
	for _, chunk := range [][][]float32{A[0:3], A[3:6]} {
		for _, v := range chunk {
			if _, err := tree.Add(encVec(v)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Delete(uint32(len(base))); err != nil {
		t.Fatal(err)
	}
	for _, v := range A[6:8] { // unsealed tail
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
	}
	want := tree.LiveIDs()
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFaultSweepReadSites injects EIO at every read site of recovery (WAL
// read, manifest read, segment reads) and asserts Open either fails with a
// clean error that preserves EIO — never quarantining a possibly-intact file
// over a transient read failure — or succeeds with the full live set. Either
// way a later clean open must serve everything: no silent loss.
func TestFaultSweepReadSites(t *testing.T) {
	base := randVecs(1, 6)
	tmpl := filepath.Join(t.TempDir(), "tmpl")
	want := buildRecoveryFixture(t, tmpl, base)

	probe := faultfs.New(nil)
	tr, err := Open(faultScriptOptions(copyTreeDir(t, tmpl), probe, len(base)))
	if err != nil {
		t.Fatalf("fault-free recovery failed: %v", err)
	}
	if got := tr.LiveIDs(); !slices.Equal(got, want) {
		t.Fatalf("fault-free recovery live set %v, want %v", got, want)
	}
	tr.Close()
	nReads := probe.CountCalls(faultfs.ReadOps()...)
	if nReads < 5 {
		t.Fatalf("only %d read sites enumerated", nReads)
	}
	t.Logf("sweeping %d read sites", nReads)

	for i := 1; i <= nReads; i++ {
		dir := copyTreeDir(t, tmpl)
		ffs := faultfs.New(nil)
		ffs.InjectNthCall(i, syscall.EIO, faultfs.ReadOps()...)
		tr, err := Open(faultScriptOptions(dir, ffs, len(base)))
		if err != nil {
			if !errors.Is(err, syscall.EIO) {
				t.Fatalf("read site %d: Open failed without preserving EIO: %v", i, err)
			}
		} else {
			if st := tr.Status(); len(st.Quarantined) != 0 {
				t.Fatalf("read site %d: EIO quarantined tiers %v (must abort, not discard)", i, st.Quarantined)
			}
			if got := tr.LiveIDs(); !slices.Equal(got, want) {
				t.Fatalf("read site %d: recovered live set %v, want %v", i, got, want)
			}
			tr.Close()
		}
		// A clean retry (the transient fault cleared) must always serve the
		// complete tree.
		retry, err := Open(faultScriptOptions(dir, nil, len(base)))
		if err != nil {
			t.Fatalf("read site %d: clean retry failed: %v", i, err)
		}
		if got := retry.LiveIDs(); !slices.Equal(got, want) {
			t.Fatalf("read site %d: clean retry live set %v, want %v", i, got, want)
		}
		if st := retry.Status(); len(st.Quarantined) != 0 {
			t.Fatalf("read site %d: clean retry quarantined %v", i, st.Quarantined)
		}
		retry.Close()
	}
}

// corruptSegment flips a byte in the body of tier seq's segment (past the
// header, so the codec reader sees a checksum failure, not a missing file)
// and returns the segment's path.
func corruptSegment(t *testing.T, dir string, seq uint64) string {
	t.Helper()
	seg := segPath(dir, seq)
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xff
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return seg
}

// TestQuarantineCorruptTier flips bytes inside a committed segment and
// asserts recovery quarantines exactly that tier: the damaged file is
// renamed aside (kept for forensics), the manifest drops it, the rest of
// the tree keeps serving, and the state is surfaced via Status.
func TestQuarantineCorruptTier(t *testing.T) {
	base := randVecs(1, 6)
	dir := filepath.Join(t.TempDir(), "tree")
	buildRecoveryFixture(t, dir, base)
	seg := corruptSegment(t, dir, 1)

	tree, err := Open(faultScriptOptions(dir, nil, len(base)))
	if err != nil {
		t.Fatalf("recovery aborted on a corrupt tier instead of quarantining: %v", err)
	}
	st := tree.Status()
	if len(st.Quarantined) != 1 {
		t.Fatalf("Quarantined = %v, want exactly one entry", st.Quarantined)
	}
	if st.State != StateOK {
		t.Fatalf("quarantine flipped state to %q; reads and writes must keep working", st.State)
	}
	if len(st.Tiers) != 1 || st.Tiers[0].Seq != 2 {
		t.Fatalf("surviving tiers %+v, want only seq 2", st.Tiers)
	}
	if _, err := os.Stat(seg + quarantineExt); err != nil {
		t.Fatalf("corrupt segment was not renamed aside: %v", err)
	}
	// Tier 1 held the first sealed adds (ids 6,7,8 minus the deleted 6);
	// its objects are gone, tier 2's and the WAL tail's survive.
	for _, id := range []uint32{7, 8} {
		if _, ok := tree.Object(id); ok {
			t.Fatalf("id %d from the quarantined tier is still served", id)
		}
	}
	for _, id := range []uint32{9, 10, 11, 12, 13} {
		if _, ok := tree.Object(id); !ok {
			t.Fatalf("id %d outside the quarantined tier was lost", id)
		}
	}
	// The tree still accepts writes and searches consistently.
	if _, err := tree.Add(encVec(randVecs(31, 1)[0])); err != nil {
		t.Fatalf("add after quarantine: %v", err)
	}
	checkIdentity(t, tree, base, "after quarantine")
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	// The next recovery is clean: the manifest no longer names the tier and
	// the quarantined file is left in place for the operator.
	again, err := Open(faultScriptOptions(dir, nil, len(base)))
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if st := again.Status(); len(st.Quarantined) != 0 {
		t.Fatalf("second recovery still reports quarantined %v", st.Quarantined)
	}
	if _, err := os.Stat(seg + quarantineExt); err != nil {
		t.Fatalf("quarantined file was cleaned up by removeStale: %v", err)
	}
	checkIdentity(t, again, base, "second recovery")
}

// TestQuarantineDropsDanglingTombstones quarantines a tier whose object a
// younger tier tombstones. The tombstone then names nothing the tree holds:
// it must leave the mask, or Live (which the server caps k with) counts one
// object fewer than the tree serves.
func TestQuarantineDropsDanglingTombstones(t *testing.T) {
	base := randVecs(1, 6)
	dir := filepath.Join(t.TempDir(), "tree")
	opts := faultScriptOptions(dir, nil, len(base))
	opts.NoFsync, opts.MaxTiers = true, 8
	tree, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	A := randVecs(21, 6)
	for i, chunk := range [][][]float32{A[0:3], A[3:6]} {
		if i == 1 {
			if err := tree.Delete(uint32(len(base))); err != nil { // tier 1's first object
				t.Fatal(err)
			}
		}
		for _, v := range chunk {
			if _, err := tree.Add(encVec(v)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tree.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	tree.Close()
	corruptSegment(t, dir, 1)

	re, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if st := re.Status(); len(st.Quarantined) != 1 || st.Deleted != 0 || st.Live != len(base)+3 {
		t.Fatalf("status after quarantining tier 1: %+v", st)
	}
	checkIdentity(t, re, base, "after quarantine")
}

// TestSealIO pins what one seal costs at the filesystem boundary: the
// segment and the manifest through vfs.WriteAtomic (create, writes, fsync,
// rename, directory fsync each), the fresh WAL segment (create, header
// write, fsync), the old WAL's closing fsync and its removal — and nothing
// else. A tier is its .seg: no seal touches an index file.
func TestSealIO(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(*testing.T, *Tree[[]float32])
	}{
		{"adds", func(t *testing.T, tree *Tree[[]float32]) {
			for _, v := range randVecs(41, 3) {
				if _, err := tree.Add(encVec(v)); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"tombstones-only", func(t *testing.T, tree *Tree[[]float32]) {
			if err := tree.DeleteBatch([]uint32{1, 4}); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ffs := faultfs.New(nil)
			tree, err := Open(faultScriptOptions(filepath.Join(t.TempDir(), "tree"), ffs, 6))
			if err != nil {
				t.Fatal(err)
			}
			defer tree.Close()
			tc.write(t, tree)
			before := len(ffs.Calls())
			if st, err := tree.Flush(); err != nil || st == nil {
				t.Fatalf("Flush = %+v, %v", st, err)
			}
			calls := ffs.Calls()[before:]
			var syncs, segs int
			for _, c := range calls {
				if strings.Contains(c.Path, ".psix") {
					t.Errorf("seal touched an index file: %s %s", c.Op, c.Path)
				}
				if c.Op == faultfs.OpSync {
					syncs++
				}
				if c.Op == faultfs.OpRename && strings.HasSuffix(c.Path, ".seg") {
					segs++
				}
			}
			if len(calls) != 15 || syncs != 4 || segs != 1 {
				t.Fatalf("seal made %d injectable calls, %d file fsyncs, %d segment renames; want 15, 4, 1:\n%v",
					len(calls), syncs, segs, calls)
			}
		})
	}
}
