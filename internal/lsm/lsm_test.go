package lsm

// The tree's contract is identity: whatever sequence of adds, deletes,
// seals, compactions, crashes and re-opens produced the current live set,
// Search must answer byte-identically to a single flat exact index built
// over that live set. Every test here reduces to that comparison, plus the
// durability property: recovery from a WAL cut at ANY byte boundary yields
// exactly the acknowledged prefix of the write history.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vfs"
)

const testDim = 4

// search answers one untraced, uncancellable query at the tree's defaults.
func search[T any](tree *Tree[T], base index.Index[T], q T, k int) []topk.Neighbor {
	out, _ := tree.SearchAppend(nil, base, q, index.Options{K: k})
	return out
}

func encVec(v []float32) []byte {
	buf := make([]byte, 0, 4*len(v))
	for _, x := range v {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
	}
	return buf
}

func decVec(raw []byte) ([]float32, error) {
	if len(raw) == 0 || len(raw)%4 != 0 {
		return nil, fmt.Errorf("bad vector payload of %d bytes", len(raw))
	}
	v := make([]float32, len(raw)/4)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return v, nil
}

func randVecs(seed int64, n int) [][]float32 {
	r := rand.New(rand.NewSource(seed))
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, testDim)
		for j := range v {
			v[j] = float32(r.NormFloat64() * 10)
		}
		out[i] = v
	}
	return out
}

func testOptions(t *testing.T, baseN int) Options[[]float32] {
	t.Helper()
	return Options[[]float32]{
		Dir:    filepath.Join(t.TempDir(), "tree"),
		Space:  space.L2{},
		BaseN:  baseN,
		Decode: decVec,
		// Fast (non-durable) by default; crash tests construct cut WAL
		// files explicitly, so they don't depend on fsync either.
		NoFsync: true,
	}
}

func mustOpen(t *testing.T, opts Options[[]float32]) *Tree[[]float32] {
	t.Helper()
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// flatRef builds the identity oracle: an exact scan over the tree's live
// set (base objects below BaseN, the tree's own copies above), answering
// with global ids. Because live ids are ascending, translating the flat
// scanner's positional ids to global ids preserves (dist, id) order. The
// oracle trusts LiveIDs, so it first checks that the ids are strictly
// ascending and that Live counts them: an object served twice must not
// become part of what the tree is compared against.
func flatRef(t *testing.T, tree *Tree[[]float32], base [][]float32) func(q []float32, k int) []topk.Neighbor {
	t.Helper()
	ids := tree.LiveIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("LiveIDs not strictly ascending at %d: %v", i, ids)
		}
	}
	if live := tree.Live(); live != len(ids) {
		t.Fatalf("Live() = %d, LiveIDs holds %d ids", live, len(ids))
	}
	objs := make([][]float32, len(ids))
	for i, id := range ids {
		if int(id) < len(base) {
			objs[i] = base[id]
			continue
		}
		obj, ok := tree.Object(id)
		if !ok {
			t.Fatalf("live id %d has no object", id)
		}
		objs[i] = obj
	}
	flat := seqscan.New[[]float32](space.L2{}, objs)
	return func(q []float32, k int) []topk.Neighbor {
		nbs := flat.Search(q, k)
		out := make([]topk.Neighbor, len(nbs))
		for i, nb := range nbs {
			out[i] = topk.Neighbor{ID: ids[nb.ID], Dist: nb.Dist}
		}
		return out
	}
}

// checkIdentity asserts tree search == flat search for a deterministic
// query battery.
func checkIdentity(t *testing.T, tree *Tree[[]float32], base [][]float32, label string) {
	t.Helper()
	ref := flatRef(t, tree, base)
	baseIdx := seqscan.New[[]float32](space.L2{}, base)
	queries := randVecs(99, 10)
	for qi, q := range queries {
		for _, k := range []int{1, 3, 25} {
			got := search(tree, baseIdx, q, k)
			want := ref(q, k)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: query %d k=%d:\ntree %+v\nflat %+v", label, qi, k, got, want)
			}
		}
	}
}

func TestTreeAddDeleteSearchIdentity(t *testing.T) {
	base := randVecs(1, 50)
	tree := mustOpen(t, testOptions(t, len(base)))
	adds := randVecs(2, 30)
	for i, v := range adds {
		id, err := tree.Add(encVec(v))
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != len(base)+i {
			t.Fatalf("add %d assigned id %d, want %d", i, id, len(base)+i)
		}
	}
	checkIdentity(t, tree, base, "after adds")

	// Delete a mix of base ids and added ids.
	for _, id := range []uint32{3, 17, 49, 52, 61, 79} {
		if err := tree.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	checkIdentity(t, tree, base, "after deletes")

	if err := tree.Delete(3); err == nil {
		t.Fatal("double delete succeeded")
	}
	if err := tree.Delete(200); err == nil {
		t.Fatal("deleting unknown id succeeded")
	}
	st := tree.Status()
	if st.Live != len(base)+30-6 {
		t.Fatalf("Live = %d, want %d", st.Live, len(base)+30-6)
	}
	if st.NextID != uint32(len(base)+30) {
		t.Fatalf("NextID = %d", st.NextID)
	}
}

func TestTreeFlushSealsAndStaysIdentical(t *testing.T) {
	base := randVecs(3, 40)
	tree := mustOpen(t, testOptions(t, len(base)))
	adds := randVecs(4, 25)
	for _, v := range adds[:10] {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Delete(5); err != nil { // base delete → tier tombstone
		t.Fatal(err)
	}
	if err := tree.Delete(42); err != nil { // memtable delete → excluded at seal
		t.Fatal(err)
	}
	st, err := tree.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.N != 9 || st.Tombstones != 1 {
		t.Fatalf("sealed tier = %+v, want n=9 tombs=1", st)
	}
	checkIdentity(t, tree, base, "after first seal")

	// Second segment: more adds, delete an id that lives in tier 1.
	for _, v := range adds[10:] {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Delete(41); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	checkIdentity(t, tree, base, "after second seal")

	status := tree.Status()
	if len(status.Tiers) != 2 {
		t.Fatalf("tiers = %+v", status.Tiers)
	}
	if status.WalRecords != 0 {
		t.Fatalf("post-seal WAL still holds %d records", status.WalRecords)
	}
	// Flush with nothing pending is a no-op.
	st, err = tree.Flush()
	if err != nil || st != nil {
		t.Fatalf("empty flush = %+v, %v", st, err)
	}
}

// TestTieredSearchCountsEveryDistance: a tiered query measures every object
// it holds exactly once — the base, each sealed tier and the memtable, a
// masked object included, since masking runs after the merge — and records
// each of those distances in the trace, so a Counter space and the trace
// agree with the object count.
func TestTieredSearchCountsEveryDistance(t *testing.T) {
	const baseN, tierN, memN = 40, 12, 7
	counter := space.NewCounter[[]float32](space.L2{})
	opts := testOptions(t, baseN)
	opts.Space = counter
	tree := mustOpen(t, opts)
	baseIdx := seqscan.New[[]float32](counter, randVecs(1, baseN))
	adds := randVecs(2, tierN+memN)
	for i, v := range adds {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
		if i == tierN-1 {
			if _, err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tree.Delete(baseN + 3); err != nil {
		t.Fatal(err)
	}
	if st := tree.Status(); len(st.Tiers) != 1 || st.Tiers[0].N != tierN || st.MemtableLive != memN || st.Deleted != 1 {
		t.Fatalf("tree shape %+v, want one tier of %d, %d in the memtable, one delete", st, tierN, memN)
	}
	const want = baseN + tierN + memN
	for qi, q := range randVecs(3, 6) {
		for _, k := range []int{1, 10} {
			counter.Reset()
			var trace obs.QueryTrace
			if _, err := tree.SearchAppend(nil, baseIdx, q, index.Options{K: k, Trace: &trace}); err != nil {
				t.Fatal(err)
			}
			if got := counter.Count(); got != want || trace.RefineDistances != want {
				t.Fatalf("query %d k=%d: Counter %d, trace %d distances, want %d (base %d + tier %d + memtable %d)",
					qi, k, got, trace.RefineDistances, want, baseN, tierN, memN)
			}
		}
	}
}

func TestTreeMemtableOverflowSealsAutomatically(t *testing.T) {
	base := randVecs(5, 10)
	opts := testOptions(t, len(base))
	opts.MemtableCap = 8
	tree := mustOpen(t, opts)
	for _, v := range randVecs(6, 20) {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
	}
	st := tree.Status()
	if len(st.Tiers) != 2 {
		t.Fatalf("expected 2 auto-sealed tiers, got %+v", st.Tiers)
	}
	if st.MemtableLive != 4 {
		t.Fatalf("memtable live = %d, want 4", st.MemtableLive)
	}
	checkIdentity(t, tree, base, "after overflow seals")
}

func TestTreeReopenPreservesEverything(t *testing.T) {
	base := randVecs(7, 30)
	opts := testOptions(t, len(base))
	tree := mustOpen(t, opts)
	adds := randVecs(8, 18)
	for _, v := range adds[:12] {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint32{2, 33} {
		if err := tree.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	// Leave unsealed writes in the WAL on top of the tier.
	for _, v := range adds[12:] {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Delete(40); err != nil { // tier-resident → segTombs
		t.Fatal(err)
	}
	wantLive := tree.LiveIDs()
	wantNext := tree.Status().NextID
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, opts)
	if got := re.LiveIDs(); !slices.Equal(got, wantLive) {
		t.Fatalf("live set changed across reopen:\n%v\n%v", got, wantLive)
	}
	if re.Status().NextID != wantNext {
		t.Fatalf("NextID = %d, want %d", re.Status().NextID, wantNext)
	}
	checkIdentity(t, re, base, "after reopen")

	// The replayed tree keeps accepting writes.
	id, err := re.Add(encVec(randVecs(9, 1)[0]))
	if err != nil {
		t.Fatal(err)
	}
	if id != wantNext {
		t.Fatalf("post-reopen add assigned %d, want %d", id, wantNext)
	}
}

func TestTreeTombstoneOnlyTierHasNoIndexFile(t *testing.T) {
	base := randVecs(10, 20)
	opts := testOptions(t, len(base))
	tree := mustOpen(t, opts)
	for _, id := range []uint32{1, 2, 3} {
		if err := tree.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	st, err := tree.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.N != 0 || st.Tombstones != 3 {
		t.Fatalf("tombstone-only tier = %+v", st)
	}
	// The tier is still one segment on disk — its tombstones must survive a
	// reopen — and nothing else.
	if got, want := dirNames(t, opts.Dir), []string{"000001.seg", manifestName, "wal-000002.log"}; !slices.Equal(got, want) {
		t.Fatalf("tree directory after a tombstone-only seal holds %v, want %v", got, want)
	}
	tree.Close()
	re := mustOpen(t, opts)
	checkIdentity(t, re, base, "tombstone-only tier after reopen")
}

func TestTreeCancelledSegmentRotatesWithoutTier(t *testing.T) {
	base := randVecs(11, 10)
	opts := testOptions(t, len(base))
	tree := mustOpen(t, opts)
	id, err := tree.Add(encVec(randVecs(12, 1)[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Delete(id); err != nil {
		t.Fatal(err)
	}
	st, err := tree.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatalf("cancelled segment sealed a tier: %+v", st)
	}
	status := tree.Status()
	if len(status.Tiers) != 0 || status.WalRecords != 0 || status.WalSeq != 2 {
		t.Fatalf("status after cancelled seal: %+v", status)
	}
	// The cancelled id is still never reused — even across a reopen.
	tree.Close()
	re := mustOpen(t, opts)
	id2, err := re.Add(encVec(randVecs(13, 1)[0]))
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id+1 {
		t.Fatalf("id %d reused after cancellation, want %d", id2, id+1)
	}
}

func waitCompacted(t *testing.T, tree *Tree[[]float32], maxTiers int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := tree.Status()
		if st.CompactErr != "" {
			t.Fatalf("compaction failed: %s", st.CompactErr)
		}
		if !st.Compacting && len(st.Tiers) <= maxTiers {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction did not settle: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestTreeCompactionMergesTiers(t *testing.T) {
	base := randVecs(14, 30)
	opts := testOptions(t, len(base))
	opts.MaxTiers = 2
	tree := mustOpen(t, opts)
	adds := randVecs(15, 24)
	for i, v := range adds {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			// Tombstone one base id and one added id per segment, then seal.
			if err := tree.Delete(uint32(i / 8)); err != nil {
				t.Fatal(err)
			}
			if err := tree.Delete(uint32(len(base) + i - 3)); err != nil {
				t.Fatal(err)
			}
			if _, err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitCompacted(t, tree, opts.MaxTiers)
	st := tree.Status()
	if len(st.Tiers) != 1 {
		t.Fatalf("tiers after compaction = %+v", st.Tiers)
	}
	// 24 adds - 3 deleted added ids; tombstones: only the 3 base ids (the
	// added-id tombstones dropped their targets during the merge and are
	// spent).
	if st.Tiers[0].N != 21 || st.Tiers[0].Tombstones != 3 {
		t.Fatalf("merged tier = %+v, want n=21 tombs=3", st.Tiers[0])
	}
	if st.Deleted != 3 {
		t.Fatalf("mask size = %d, want 3", st.Deleted)
	}
	checkIdentity(t, tree, base, "after compaction")

	// Replaced tier files are gone; only the merged tier's remain.
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs int
	for _, e := range entries {
		var seq uint64
		if matchSeq(e.Name(), &seq) {
			segs++
		}
	}
	if segs != 1 {
		t.Fatalf("%d segment files on disk, want 1", segs)
	}

	// And the compacted tree survives a reopen.
	tree.Close()
	re := mustOpen(t, opts)
	checkIdentity(t, re, base, "compacted tree after reopen")
}

// TestTreeCrashRecoveryEveryByteBoundary is the durability property test:
// cut the WAL at EVERY byte boundary, reopen, and require the recovered
// tree to equal a flat rebuild over exactly the writes whose records
// survived the cut in full. This is what "kill -9 loses no acknowledged
// write" means mechanically: fsync ran at each ack, so a crash leaves some
// byte-prefix of the log, and every such prefix must recover cleanly.
func TestTreeCrashRecoveryEveryByteBoundary(t *testing.T) {
	base := randVecs(16, 20)
	scratch := t.TempDir()
	opts := Options[[]float32]{
		Dir: filepath.Join(scratch, "tree"), Space: space.L2{},
		BaseN: len(base), Decode: decVec, NoFsync: true,
	}
	tree, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Scripted write history; op = (add vec) or (delete id). Includes base
	// deletes, added-id deletes and an add-then-delete pair.
	type op struct {
		vec []float32 // nil ⇒ delete
		id  uint32
	}
	addVecs := randVecs(17, 12)
	var ops []op
	for i, v := range addVecs {
		ops = append(ops, op{vec: v})
		switch i {
		case 3:
			ops = append(ops, op{id: 2}) // base
		case 5:
			ops = append(ops, op{id: 21}) // added earlier (20 + 1)
		case 7:
			ops = append(ops, op{id: 27}) // add-then-delete: just-added id
		case 9:
			ops = append(ops, op{id: 15}) // base
		}
	}
	for _, o := range ops {
		if o.vec != nil {
			if _, err := tree.Add(encVec(o.vec)); err != nil {
				t.Fatal(err)
			}
		} else if err := tree.Delete(o.id); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	walBytes, err := os.ReadFile(walPath(opts.Dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	manifestBytes, err := os.ReadFile(filepath.Join(opts.Dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries: offsets at which exactly m records are complete.
	boundaries := []int64{walHeaderLen}
	off := int64(walHeaderLen)
	for off < int64(len(walBytes)) {
		frameLen := int64(binary.LittleEndian.Uint32(walBytes[off:]))
		off += 4 + frameLen + 4
		boundaries = append(boundaries, off)
	}
	if off != int64(len(walBytes)) {
		t.Fatalf("WAL does not parse into whole records (ends at %d of %d)", off, len(walBytes))
	}
	if len(boundaries) != len(ops)+1 {
		t.Fatalf("%d boundaries for %d ops", len(boundaries), len(ops))
	}

	// expectedLive[m] = live id set after the first m ops.
	expectedLive := make([][]uint32, len(ops)+1)
	live := make(map[uint32][]float32)
	for i := range base {
		live[uint32(i)] = base[i]
	}
	nextID := uint32(len(base))
	snap := func() []uint32 {
		ids := make([]uint32, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		return ids
	}
	expectedLive[0] = snap()
	for m, o := range ops {
		if o.vec != nil {
			live[nextID] = o.vec
			nextID++
		} else {
			delete(live, o.id)
		}
		expectedLive[m+1] = snap()
	}

	queries := randVecs(18, 4)
	baseIdx := seqscan.New[[]float32](space.L2{}, base)
	for cut := int64(walHeaderLen); cut <= int64(len(walBytes)); cut++ {
		// Recovered records = boundaries fully at or before the cut.
		m := 0
		for m+1 < len(boundaries) && boundaries[m+1] <= cut {
			m++
		}
		dir := filepath.Join(scratch, fmt.Sprintf("cut-%d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifestBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath(dir, 1), walBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cutOpts := opts
		cutOpts.Dir = dir
		re, err := Open(cutOpts)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := re.LiveIDs(); !slices.Equal(got, expectedLive[m]) {
			t.Fatalf("cut %d (%d records): live %v, want %v", cut, m, got, expectedLive[m])
		}
		// Spot-check identity at a few interesting cuts (every one would
		// be O(boundaries × queries × scan) for no extra coverage).
		if cut == boundaries[m] || cut == boundaries[m]+1 {
			ref := flatRef(t, re, base)
			for _, q := range queries {
				got := search(re, baseIdx, q, 5)
				if want := ref(q, 5); !slices.Equal(got, want) {
					t.Fatalf("cut %d: search diverges:\n%+v\n%+v", cut, got, want)
				}
			}
		}
		re.Close()
		os.RemoveAll(dir)
	}
}

// TestTreeRecoveryAfterSealCrashWindows drops the tree into each state a
// crash between seal steps leaves behind (orphaned tier files without a
// manifest entry; committed manifest without the next WAL segment; stale
// previous WAL) and requires Open to recover the committed state.
func TestTreeRecoveryAfterSealCrashWindows(t *testing.T) {
	base := randVecs(19, 20)
	opts := testOptions(t, len(base))
	tree := mustOpen(t, opts)
	for _, v := range randVecs(20, 6) {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tree.Flush(); err != nil {
		t.Fatal(err)
	}
	wantLive := tree.LiveIDs()
	tree.Close()

	// Crash window A: tier files written, manifest not yet committed —
	// simulate by planting orphan files for an unlisted sequence.
	if err := os.WriteFile(segPath(opts.Dir, 77), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphanIdx := filepath.Join(opts.Dir, "000077.psix") // what older builds wrote beside a .seg
	if err := os.WriteFile(orphanIdx, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash window B: manifest committed, new WAL never created.
	if err := os.Remove(walPath(opts.Dir, 2)); err != nil {
		t.Fatal(err)
	}
	// Crash window C: previous WAL not yet deleted.
	if err := os.WriteFile(walPath(opts.Dir, 1), []byte("PSWLxx-stale"), 0o644); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, opts)
	if got := re.LiveIDs(); !slices.Equal(got, wantLive) {
		t.Fatalf("recovered live set %v, want %v", got, wantLive)
	}
	checkIdentity(t, re, base, "after seal-crash recovery")
	for _, stale := range []string{segPath(opts.Dir, 77), orphanIdx, walPath(opts.Dir, 1)} {
		if _, err := os.Stat(stale); !os.IsNotExist(err) {
			t.Fatalf("stale file %s survived recovery (err=%v)", stale, err)
		}
	}
}

// dirNames lists a tree directory, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestTreeOpensOlderLayout is the upgrade path: a directory laid out the way
// builds that persisted the tier scanner wrote it — an NNNNNN.psix beside
// every .seg (one of them garbage, which those builds tolerated) and a
// "kind": "seqscan" key in every tiers.json row — opens, answers
// byte-identically to a flat scan of the live set, and holds no .psix
// afterwards.
func TestTreeOpensOlderLayout(t *testing.T) {
	base := randVecs(21, 15)
	opts := testOptions(t, len(base))
	tree := mustOpen(t, opts)
	for i, v := range randVecs(22, 10) {
		if _, err := tree.Add(encVec(v)); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if _, err := tree.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tree.Delete(uint32(len(base)) + 1); err != nil { // unsealed tail
		t.Fatal(err)
	}
	wantLive := tree.LiveIDs()
	tree.Close()

	manPath := filepath.Join(opts.Dir, manifestName)
	man, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	const row = `"tombstones": 0`
	if n := bytes.Count(man, []byte(row)); n != 2 {
		t.Fatalf("manifest has %d tier rows, want 2:\n%s", n, man)
	}
	man = bytes.ReplaceAll(man, []byte(row), []byte(row+`,
      "kind": "seqscan"`))
	if err := os.WriteFile(manPath, man, 0o644); err != nil {
		t.Fatal(err)
	}
	var scanner bytes.Buffer // the bytes older builds saved for a 5-object tier
	if err := seqscan.New[[]float32](space.L2{}, make([][]float32, 5)).Save(&scanner); err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{"000001.psix": scanner.Bytes(), "000002.psix": []byte("not an index")} {
		if err := os.WriteFile(filepath.Join(opts.Dir, name), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	re := mustOpen(t, opts)
	if got := re.LiveIDs(); !slices.Equal(got, wantLive) {
		t.Fatalf("live set after upgrade %v, want %v", got, wantLive)
	}
	if st := re.Status(); len(st.Tiers) != 2 || len(st.Quarantined) != 0 {
		t.Fatalf("status after upgrade: %+v", st)
	}
	checkIdentity(t, re, base, "older layout")
	if got, want := dirNames(t, opts.Dir), []string{"000001.seg", "000002.seg", manifestName, "wal-000003.log"}; !slices.Equal(got, want) {
		t.Fatalf("tree directory after upgrade holds %v, want %v", got, want)
	}
}

func TestTreeOpenRejectsMismatches(t *testing.T) {
	opts := testOptions(t, 10)
	tree := mustOpen(t, opts)
	tree.Close()
	wrongN := opts
	wrongN.BaseN = 11
	if _, err := Open(wrongN); err == nil {
		t.Fatal("Open accepted a different BaseN")
	}
	wrongSpace := opts
	wrongSpace.Space = space.L1{}
	if _, err := Open(wrongSpace); err == nil {
		t.Fatal("Open accepted a different space")
	}
}

func TestTreeClosedRejectsWrites(t *testing.T) {
	opts := testOptions(t, 5)
	tree := mustOpen(t, opts)
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Add(encVec(randVecs(23, 1)[0])); err == nil {
		t.Fatal("Add on closed tree succeeded")
	}
	if err := tree.Delete(1); err == nil {
		t.Fatal("Delete on closed tree succeeded")
	}
	if err := tree.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

// TestTreeIDCounterDoesNotWrap opens a tree whose manifest NextID sits just
// below the top of the uint32 id space. Adds get ids up to the last
// assignable one and are then refused as invalid, never wrapped to id 0 (a
// base id); recovery keeps the exhausted counter; and a WAL add record that
// would wrap it is refused as corrupt.
func TestTreeIDCounterDoesNotWrap(t *testing.T) {
	opts := testOptions(t, 3)
	mustOpen(t, opts).Close()
	man, _, err := readManifest(vfs.OS{}, opts.Dir)
	if err != nil {
		t.Fatal(err)
	}
	man.NextID = lastID - 1
	if err := writeManifest(vfs.OS{}, opts.Dir, man); err != nil {
		t.Fatal(err)
	}
	vecs := randVecs(61, 3)
	tree := mustOpen(t, opts)
	if id, err := tree.Add(encVec(vecs[0])); err != nil || id != lastID-1 {
		t.Fatalf("Add = %d, %v, want id %d", id, err, uint32(lastID-1))
	}
	if _, err := tree.AddBatch([][]byte{encVec(vecs[1]), encVec(vecs[2])}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("AddBatch past the last id = %v, want ErrInvalid", err)
	}
	if id, err := tree.Add(encVec(vecs[1])); err != nil || id != lastID {
		t.Fatalf("Add = %d, %v, want the last id %d", id, err, uint32(lastID))
	}
	if _, err := tree.Add(encVec(vecs[2])); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Add on an exhausted counter = %v, want ErrInvalid", err)
	}
	got := search(tree, nil, vecs[2], 10)
	if len(got) != 2 || got[0].ID < lastID-1 || got[1].ID < lastID-1 {
		t.Fatalf("search over the two adds = %v, want ids %d and %d", got, uint32(lastID-1), uint32(lastID))
	}
	walSeq := tree.Status().WalSeq
	if err := tree.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, opts)
	if st := re.Status(); st.NextID != math.MaxUint32 || st.MemtableLive != 2 {
		t.Fatalf("recovered NextID %d with %d memtable objects, want %d with 2", st.NextID, st.MemtableLive, uint32(math.MaxUint32))
	}
	if _, err := re.Add(encVec(vecs[2])); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Add after recovery = %v, want ErrInvalid", err)
	}
	re.Close()

	w, _, err := openWAL(vfs.OS{}, walPath(opts.Dir, walSeq), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.append(walOpAdd, math.MaxUint32, encVec(vecs[2])); err != nil {
		t.Fatal(err)
	}
	w.close()
	if tree, err := Open(opts); err == nil {
		tree.Close()
		t.Fatal("Open replayed an add record whose id wraps the id counter")
	}
}

// TestTreeConcurrentWritesAndSearches exercises the memtable guard under
// the race detector: writers add/delete/flush while searchers hammer the
// tree. Every search must return only live, never-duplicated ids and obey
// the k contract.
func TestTreeConcurrentWritesAndSearches(t *testing.T) {
	base := randVecs(24, 40)
	opts := testOptions(t, len(base))
	opts.MemtableCap = 16
	opts.MaxTiers = 2
	tree := mustOpen(t, opts)
	baseIdx := seqscan.New[[]float32](space.L2{}, base)

	var writers, searchers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			vecs := randVecs(int64(25+w), 120)
			var mine []uint32
			for i, v := range vecs {
				ids, err := tree.AddBatch([][]byte{encVec(v)})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				mine = append(mine, ids...)
				if i%7 == 3 && len(mine) > 2 {
					victim := mine[len(mine)/2]
					mine = slices.DeleteFunc(mine, func(id uint32) bool { return id == victim })
					if err := tree.Delete(victim); err != nil {
						t.Errorf("writer %d delete %d: %v", w, victim, err)
						return
					}
				}
				if i%31 == 30 {
					if _, err := tree.Flush(); err != nil {
						t.Errorf("writer %d flush: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	for s := 0; s < 3; s++ {
		searchers.Add(1)
		go func(s int) {
			defer searchers.Done()
			queries := randVecs(int64(35+s), 8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[i%len(queries)]
				nbs := search(tree, baseIdx, q, 10)
				if len(nbs) > 10 {
					t.Errorf("searcher %d: %d results for k=10", s, len(nbs))
					return
				}
				seen := make(map[uint32]bool, len(nbs))
				for j, nb := range nbs {
					if seen[nb.ID] {
						t.Errorf("searcher %d: duplicate id %d", s, nb.ID)
						return
					}
					seen[nb.ID] = true
					// Canonical (dist, id) order is strict: ids are unique,
					// so each neighbor must sort strictly after the last.
					if j > 0 {
						prev := nbs[j-1]
						if prev.Dist > nb.Dist || (prev.Dist == nb.Dist && prev.ID >= nb.ID) {
							t.Errorf("searcher %d: unsorted results %+v", s, nbs)
							return
						}
					}
				}
				tree.Status()
			}
		}(s)
	}
	writers.Wait()
	close(stop)
	searchers.Wait()
	waitCompacted(t, tree, opts.MaxTiers)
	checkIdentity(t, tree, base, "after concurrent churn")
}

func TestMatchSeqAndWal(t *testing.T) {
	var seq uint64
	for name, want := range map[string]bool{
		"000001.seg": true, "012345.seg": true,
		"1.seg": false, "0000001.seg": false, "x.seg": false, ".seg": false,
	} {
		if got := matchSeq(name, &seq); got != want {
			t.Errorf("matchSeq(%q) = %v, want %v", name, got, want)
		}
	}
	if !matchSeq("000042.seg", &seq) || seq != 42 {
		t.Errorf("matchSeq parsed seq %d", seq)
	}
	for name, want := range map[string]bool{
		"wal-000001.log": true, "wal-1.log": false, "wal-.log": false,
		"wal-000001.seg": false,
	} {
		if got := matchWal(name, &seq); got != want {
			t.Errorf("matchWal(%q) = %v, want %v", name, got, want)
		}
	}
}
