package core

import (
	"io"
	"math/bits"
	"sort"

	"repro/internal/codec"
	"repro/internal/permutation"
	"repro/internal/space"
	"repro/internal/vptree"
)

// Persistence for the permutation methods. Every payload follows the same
// pattern: the effective (defaulted) option struct, the pivot set as ids
// into the data slice, then the precomputed filtering structure (flattened
// permutations, posting lists, prefix trees, voter arrays). The raw data
// objects are never stored — loaders receive the same data slice the index
// was built over, validated against the header's recorded size and space
// name — so a single format serves every object type the paper evaluates.
//
// Indexes built over explicit pivot objects (NewNAPPWithPivots and friends)
// have no data ids to reference and Save returns codec.ErrNotPersistable.

// savePivots writes the pivot set as source ids, or fails for explicit
// pivot sets.
func savePivots[T any](cw *codec.Writer, pv *permutation.Pivots[T]) error {
	ids := pv.SourceIDs()
	if ids == nil {
		return codec.ErrNotPersistable
	}
	cw.I32s(ids)
	return nil
}

// loadPivots reconstructs a pivot set from the ids section.
func loadPivots[T any](cr *codec.Reader, sp space.Space[T], data []T) *permutation.Pivots[T] {
	ids := cr.I32s()
	if cr.Err() != nil {
		return nil
	}
	pv, err := permutation.FromIDs(sp, data, ids)
	if err != nil {
		cr.Corruptf("%v", err)
		return nil
	}
	return pv
}

// --- BruteForceFilter ---

// Save serializes the filter under kind "brute-force-filt".
func (f *BruteForceFilter[T]) Save(w io.Writer) error {
	cw := codec.NewWriter(w, codec.KindBruteForce, f.sp.Name(), len(f.data))
	if err := savePivots(cw, f.pivots); err != nil {
		return err
	}
	cw.Int(f.opts.NumPivots)
	cw.F64(f.opts.Gamma)
	cw.U8(uint8(f.opts.Dist))
	cw.Bool(false) // was the heap-selection ablation switch; the slot stays so the format does not move
	cw.I64(f.opts.Seed)
	cw.I32s(f.perms)
	return cw.Close()
}

// LoadBruteForceFilter reads a filter saved by Save over the same data.
func LoadBruteForceFilter[T any](cr *codec.Reader, sp space.Space[T], data []T) (*BruteForceFilter[T], error) {
	if err := cr.Expect(codec.KindBruteForce, sp.Name(), len(data)); err != nil {
		return nil, err
	}
	f := &BruteForceFilter[T]{sp: sp, data: data}
	f.Bind(f.search)
	f.pivots = loadPivots(cr, sp, data)
	f.opts.NumPivots = cr.Int()
	f.opts.Gamma = cr.F64()
	f.opts.Dist = PermDist(cr.U8())
	cr.Bool() // retired heap-selection switch, ignored
	f.opts.Seed = cr.I64()
	f.perms = cr.I32s()
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	if f.opts.NumPivots != f.pivots.M() || len(f.perms) != len(data)*f.pivots.M() || f.opts.Gamma <= 0 {
		cr.Corruptf("inconsistent brute-force sections (m=%d, pivots=%d, perms=%d)",
			f.opts.NumPivots, f.pivots.M(), len(f.perms))
		return nil, cr.Err()
	}
	return f, nil
}

// --- BinFilter ---

// Save serializes the binarized filter under kind "brute-force-filt-bin".
func (f *BinFilter[T]) Save(w io.Writer) error {
	cw := codec.NewWriter(w, codec.KindBinFilter, f.sp.Name(), len(f.data))
	if err := savePivots(cw, f.pivots); err != nil {
		return err
	}
	cw.Int(f.opts.NumPivots)
	cw.Int(f.opts.Threshold)
	cw.F64(f.opts.Gamma)
	cw.I64(f.opts.Seed)
	cw.Int(f.words)
	cw.U64s(f.bits)
	return cw.Close()
}

// LoadBinFilter reads a binarized filter saved by Save over the same data.
func LoadBinFilter[T any](cr *codec.Reader, sp space.Space[T], data []T) (*BinFilter[T], error) {
	if err := cr.Expect(codec.KindBinFilter, sp.Name(), len(data)); err != nil {
		return nil, err
	}
	f := &BinFilter[T]{sp: sp, data: data}
	f.Bind(f.search)
	f.pivots = loadPivots(cr, sp, data)
	f.opts.NumPivots = cr.Int()
	f.opts.Threshold = cr.Int()
	f.opts.Gamma = cr.F64()
	f.opts.Seed = cr.I64()
	f.words = cr.Int()
	f.bits = cr.U64s()
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	if f.opts.NumPivots != f.pivots.M() ||
		f.words != permutation.BinaryWords(f.opts.NumPivots) ||
		len(f.bits) != len(data)*f.words || f.opts.Gamma <= 0 {
		cr.Corruptf("inconsistent bin-filter sections (m=%d, words=%d, bits=%d)",
			f.opts.NumPivots, f.words, len(f.bits))
		return nil, cr.Err()
	}
	return f, nil
}

// --- QuantFilter ---

// Save serializes the quantized-prefix filter under kind
// "brute-force-filt-quant".
func (f *QuantFilter[T]) Save(w io.Writer) error {
	cw := codec.NewWriter(w, codec.KindQuantFilter, f.sp.Name(), len(f.data))
	if err := savePivots(cw, f.pivots); err != nil {
		return err
	}
	cw.Int(f.opts.NumPivots)
	cw.Int(f.opts.PrefixLen)
	cw.F64(f.opts.Gamma)
	cw.I64(f.opts.Seed)
	cw.Int(f.words)
	cw.U64s(f.sigs)
	return cw.Close()
}

// LoadQuantFilter reads a quantized-prefix filter saved by Save over the
// same data.
func LoadQuantFilter[T any](cr *codec.Reader, sp space.Space[T], data []T) (*QuantFilter[T], error) {
	if err := cr.Expect(codec.KindQuantFilter, sp.Name(), len(data)); err != nil {
		return nil, err
	}
	f := &QuantFilter[T]{sp: sp, data: data}
	f.Bind(f.search)
	f.pivots = loadPivots(cr, sp, data)
	f.opts.NumPivots = cr.Int()
	f.opts.PrefixLen = cr.Int()
	f.opts.Gamma = cr.F64()
	f.opts.Seed = cr.I64()
	f.words = cr.Int()
	f.sigs = cr.U64s()
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	if f.opts.NumPivots != f.pivots.M() ||
		f.opts.PrefixLen <= 0 || f.opts.PrefixLen > f.opts.NumPivots ||
		f.words != permutation.QuantizedWords(f.opts.PrefixLen) ||
		len(f.sigs) != len(data)*f.words || f.opts.Gamma <= 0 {
		cr.Corruptf("inconsistent quant-filter sections (m=%d, prefix=%d, words=%d, sigs=%d)",
			f.opts.NumPivots, f.opts.PrefixLen, f.words, len(f.sigs))
		return nil, cr.Err()
	}
	return f, nil
}

// --- DistVecFilter ---

// Save serializes the distance-vector filter under kind "distvec-filt".
func (f *DistVecFilter[T]) Save(w io.Writer) error {
	cw := codec.NewWriter(w, codec.KindDistVec, f.sp.Name(), len(f.data))
	if err := savePivots(cw, f.pivots); err != nil {
		return err
	}
	cw.Int(f.opts.NumPivots)
	cw.F64(f.opts.Gamma)
	cw.I64(f.opts.Seed)
	cw.F32s(f.vecs)
	return cw.Close()
}

// LoadDistVecFilter reads a filter saved by Save over the same data.
func LoadDistVecFilter[T any](cr *codec.Reader, sp space.Space[T], data []T) (*DistVecFilter[T], error) {
	if err := cr.Expect(codec.KindDistVec, sp.Name(), len(data)); err != nil {
		return nil, err
	}
	f := &DistVecFilter[T]{sp: sp, data: data}
	f.Bind(f.search)
	f.pivots = loadPivots(cr, sp, data)
	f.opts.NumPivots = cr.Int()
	f.opts.Gamma = cr.F64()
	f.opts.Seed = cr.I64()
	f.vecs = cr.F32s()
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	if f.opts.NumPivots != f.pivots.M() || len(f.vecs) != len(data)*f.pivots.M() || f.opts.Gamma <= 0 {
		cr.Corruptf("inconsistent distvec sections (m=%d, vecs=%d)", f.opts.NumPivots, len(f.vecs))
		return nil, cr.Err()
	}
	return f, nil
}

// --- PPIndex ---

// Save serializes the prefix index under kind "pp-index". Trie nodes are
// written in preorder with children in ascending pivot order, so equal trees
// always produce identical bytes.
func (pp *PPIndex[T]) Save(w io.Writer) error {
	cw := codec.NewWriter(w, codec.KindPPIndex, pp.sp.Name(), len(pp.data))
	cw.Int(pp.opts.NumPivots)
	cw.Int(pp.opts.PrefixLen)
	cw.Int(pp.opts.Copies)
	cw.F64(pp.opts.Gamma)
	cw.I64(pp.opts.Seed)
	cw.Int(len(pp.trees))
	for _, tree := range pp.trees {
		if err := savePivots(cw, tree.pivots); err != nil {
			return err
		}
		encodePPNode(cw, tree.root)
	}
	return cw.Close()
}

func encodePPNode(cw *codec.Writer, n *ppNode) {
	cw.Int(n.count)
	cw.U32s(n.items)
	keys := make([]int32, 0, len(n.children))
	for k := range n.children {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	cw.U32(uint32(len(keys)))
	for _, k := range keys {
		cw.I32(k)
		encodePPNode(cw, n.children[k])
	}
}

// LoadPPIndex reads a prefix index saved by Save over the same data.
func LoadPPIndex[T any](cr *codec.Reader, sp space.Space[T], data []T) (*PPIndex[T], error) {
	if err := cr.Expect(codec.KindPPIndex, sp.Name(), len(data)); err != nil {
		return nil, err
	}
	pp := &PPIndex[T]{sp: sp, data: data}
	pp.Bind(pp.search)
	pp.opts.NumPivots = cr.Int()
	pp.opts.PrefixLen = cr.Int()
	pp.opts.Copies = cr.Int()
	pp.opts.Gamma = cr.F64()
	pp.opts.Seed = cr.I64()
	trees := cr.Int()
	// NumPivots <= n holds for every legitimate file (pivots are sampled
	// from the data set), and bounding it here bounds PrefixLen and hence
	// the node-decoding recursion below — a crafted deep file fails fast
	// instead of exhausting the stack.
	if cr.Err() == nil && (trees <= 0 || trees > 1<<16 ||
		pp.opts.NumPivots > len(data) ||
		pp.opts.PrefixLen <= 0 || pp.opts.PrefixLen > pp.opts.NumPivots || pp.opts.Gamma <= 0) {
		cr.Corruptf("inconsistent pp-index options (trees=%d, l=%d, m=%d)",
			trees, pp.opts.PrefixLen, pp.opts.NumPivots)
	}
	for c := 0; c < trees && cr.Err() == nil; c++ {
		tree := ppTree[T]{pivots: loadPivots(cr, sp, data)}
		tree.root = decodePPNode(cr, pp.opts.PrefixLen+1, len(data))
		if cr.Err() == nil && tree.pivots.M() != pp.opts.NumPivots {
			cr.Corruptf("tree %d has %d pivots, options say %d", c, tree.pivots.M(), pp.opts.NumPivots)
		}
		pp.trees = append(pp.trees, tree)
	}
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	return pp, nil
}

func decodePPNode(cr *codec.Reader, depth, n int) *ppNode {
	if depth < 0 {
		cr.Corruptf("prefix tree deeper than its prefix length")
		return nil
	}
	node := &ppNode{count: cr.Int()}
	node.items = cr.U32s()
	for _, id := range node.items {
		if int(id) >= n {
			cr.Corruptf("prefix tree item %d out of range [0, %d)", id, n)
			return nil
		}
	}
	kids := cr.U32()
	if cr.Err() != nil {
		return nil
	}
	if kids > 0 {
		// No capacity hint: kids is attacker-controlled until the child
		// payloads behind it are actually decoded.
		node.children = make(map[int32]*ppNode)
	}
	for i := uint32(0); i < kids; i++ {
		key := cr.I32()
		child := decodePPNode(cr, depth-1, n)
		if cr.Err() != nil {
			return nil
		}
		node.children[key] = child
	}
	return node
}

// --- MIFile ---

// Save serializes the metric inverted file under kind "mi-file".
func (mf *MIFile[T]) Save(w io.Writer) error {
	cw := codec.NewWriter(w, codec.KindMIFile, mf.sp.Name(), len(mf.data))
	if err := savePivots(cw, mf.pivots); err != nil {
		return err
	}
	cw.Int(mf.opts.NumPivots)
	cw.Int(mf.opts.NumPivotIndex)
	cw.Int(mf.opts.NumPivotSearch)
	cw.Int(mf.opts.MaxPosDiff)
	cw.F64(mf.opts.Gamma)
	cw.I64(mf.opts.Seed)
	cw.Int(len(mf.postings))
	for _, list := range mf.postings {
		cw.U64(uint64(len(list)))
		for _, pe := range list {
			cw.I32(pe.pos)
			cw.U32(pe.id)
		}
	}
	return cw.Close()
}

// LoadMIFile reads an inverted file saved by Save over the same data.
func LoadMIFile[T any](cr *codec.Reader, sp space.Space[T], data []T) (*MIFile[T], error) {
	if err := cr.Expect(codec.KindMIFile, sp.Name(), len(data)); err != nil {
		return nil, err
	}
	mf := &MIFile[T]{sp: sp, data: data}
	mf.Bind(mf.search)
	mf.pivots = loadPivots(cr, sp, data)
	mf.opts.NumPivots = cr.Int()
	mf.opts.NumPivotIndex = cr.Int()
	mf.opts.NumPivotSearch = cr.Int()
	mf.opts.MaxPosDiff = cr.Int()
	mf.opts.Gamma = cr.F64()
	mf.opts.Seed = cr.I64()
	lists := cr.Int()
	if cr.Err() == nil {
		if lists < 0 || mf.pivots == nil || lists != mf.pivots.M() || lists != mf.opts.NumPivots ||
			mf.opts.NumPivotSearch <= 0 || mf.opts.NumPivotSearch > mf.opts.NumPivots ||
			mf.opts.Gamma <= 0 {
			cr.Corruptf("inconsistent mi-file options (lists=%d, m=%d, ms=%d)",
				lists, mf.opts.NumPivots, mf.opts.NumPivotSearch)
		}
	}
	if cr.Err() == nil {
		mf.postings = make([][]miPosting, lists)
		for p := range mf.postings {
			entries := cr.Length(8) // pos i32 + id u32 per entry
			list := make([]miPosting, entries)
			for i := range list {
				list[i] = miPosting{pos: cr.I32(), id: cr.U32()}
				if cr.Err() != nil {
					break
				}
				if int(list[i].id) >= len(data) {
					cr.Corruptf("posting id %d out of range [0, %d)", list[i].id, len(data))
					break
				}
			}
			if cr.Err() != nil {
				break
			}
			mf.postings[p] = list
		}
	}
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	return mf, nil
}

// --- NAPP ---

// Save serializes the NAPP inverted file under kind "napp", including the
// dynamic-maintenance state (tombstoned ids), so a loaded index resumes
// exactly where the saved one stopped.
func (na *NAPP[T]) Save(w io.Writer) error {
	cw := codec.NewWriter(w, codec.KindNAPP, na.sp.Name(), len(na.data))
	if err := savePivots(cw, na.pivots); err != nil {
		return err
	}
	cw.Int(na.opts.NumPivots)
	cw.Int(na.opts.NumPivotIndex)
	cw.Int(na.opts.NumPivotSearch)
	cw.Int(na.opts.MinShared)
	cw.Int(na.opts.MaxCandidates)
	cw.I64(na.opts.Seed)
	cw.Int(len(na.bitmaps))
	for _, b := range na.bitmaps {
		saveBitmap(cw, b)
	}
	saveBitmap(cw, na.dead)
	return cw.Close()
}

// saveBitmap writes the set bits of b as a length-prefixed list of ascending
// uint32 ids — the bytes Writer.U32s would produce for that list, so NAPP
// files are the same whether postings are held as ids or as bitmaps.
func saveBitmap(cw *codec.Writer, b []uint64) {
	n := 0
	for _, word := range b {
		n += bits.OnesCount64(word)
	}
	cw.U64(uint64(n))
	for w, word := range b {
		for ; word != 0; word &= word - 1 {
			cw.U32(uint32(w)<<6 | uint32(bits.TrailingZeros64(word)))
		}
	}
}

// loadBitmap reads a list written by saveBitmap into a bitmap over n ids and
// returns it with its population. Only strictly ascending ids below n are
// what Save writes; anything else is corruption.
func loadBitmap(cr *codec.Reader, n int, what string) (b []uint64, count int) {
	count = cr.Length(4)
	if cr.Err() != nil {
		return nil, 0
	}
	b = make([]uint64, (n+63)/64)
	prev := -1
	for i := 0; i < count; i++ {
		id := int(cr.U32())
		if cr.Err() != nil {
			return nil, 0
		}
		if id >= n || id <= prev {
			cr.Corruptf("%s id %d out of order or range (previous %d, %d points)", what, id, prev, n)
			return nil, 0
		}
		b[id>>6] |= 1 << (id & 63)
		prev = id
	}
	return b, count
}

// LoadNAPP reads a NAPP index saved by Save over the same data (including
// any points appended with Add before saving).
func LoadNAPP[T any](cr *codec.Reader, sp space.Space[T], data []T) (*NAPP[T], error) {
	if err := cr.Expect(codec.KindNAPP, sp.Name(), len(data)); err != nil {
		return nil, err
	}
	na := &NAPP[T]{sp: sp, data: data}
	na.Bind(na.search)
	na.pivots = loadPivots(cr, sp, data)
	na.opts.NumPivots = cr.Int()
	na.opts.NumPivotIndex = cr.Int()
	na.opts.NumPivotSearch = cr.Int()
	na.opts.MinShared = cr.Int()
	na.opts.MaxCandidates = cr.Int()
	na.opts.Seed = cr.I64()
	lists := cr.Int()
	if cr.Err() == nil {
		if na.pivots == nil || lists != na.pivots.M() || lists != na.opts.NumPivots ||
			na.opts.NumPivotIndex <= 0 || na.opts.NumPivotIndex > na.opts.NumPivots ||
			na.opts.NumPivotSearch <= 0 || na.opts.NumPivotSearch > na.opts.NumPivots ||
			na.opts.NumPivotSearch > 255 || na.opts.MinShared <= 0 {
			cr.Corruptf("inconsistent napp options (lists=%d, m=%d, mi=%d, ms=%d, t=%d)",
				lists, na.opts.NumPivots, na.opts.NumPivotIndex,
				na.opts.NumPivotSearch, na.opts.MinShared)
		}
	}
	if cr.Err() == nil {
		na.bitmaps = make([][]uint64, lists)
		for p := range na.bitmaps {
			if na.bitmaps[p], _ = loadBitmap(cr, len(data), "posting"); cr.Err() != nil {
				break
			}
		}
	}
	if dead, ndead := loadBitmap(cr, len(data), "tombstone"); ndead > 0 {
		na.dead, na.ndead = dead, ndead
	}
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	return na, nil
}

// --- OMEDRANK ---

// Save serializes the rank-aggregation index under kind "omedrank".
func (om *OMEDRANK[T]) Save(w io.Writer) error {
	cw := codec.NewWriter(w, codec.KindOMEDRANK, om.sp.Name(), len(om.data))
	if om.pivotIDs == nil {
		return codec.ErrNotPersistable
	}
	cw.I32s(om.pivotIDs)
	cw.Int(om.opts.NumVoters)
	cw.F64(om.opts.Quorum)
	cw.F64(om.opts.Gamma)
	cw.I64(om.opts.Seed)
	cw.Int(len(om.voters))
	for _, v := range om.voters {
		cw.F64s(v.dists)
		cw.U32s(v.ids)
	}
	return cw.Close()
}

// LoadOMEDRANK reads an index saved by Save over the same data.
func LoadOMEDRANK[T any](cr *codec.Reader, sp space.Space[T], data []T) (*OMEDRANK[T], error) {
	if err := cr.Expect(codec.KindOMEDRANK, sp.Name(), len(data)); err != nil {
		return nil, err
	}
	om := &OMEDRANK[T]{sp: sp, data: data}
	om.Bind(om.search)
	ids := cr.I32s()
	if cr.Err() == nil {
		for _, id := range ids {
			if id < 0 || int(id) >= len(data) {
				cr.Corruptf("voter id %d out of range [0, %d)", id, len(data))
				break
			}
			om.pivots = append(om.pivots, data[id])
			om.pivotIDs = append(om.pivotIDs, id)
		}
	}
	om.opts.NumVoters = cr.Int()
	om.opts.Quorum = cr.F64()
	om.opts.Gamma = cr.F64()
	om.opts.Seed = cr.I64()
	voters := cr.Int()
	// The search-time quorum counters are 32-bit (scratch.Gains), but the
	// voter count must stay clear of absurd territory and match the pivot
	// list; 2^15 keeps the historical on-disk bound.
	if cr.Err() == nil && (voters <= 0 || voters != len(om.pivots) || voters > 1<<15 ||
		om.opts.Quorum <= 0 || om.opts.Quorum > 1 || om.opts.Gamma <= 0) {
		cr.Corruptf("inconsistent omedrank options (voters=%d, pivots=%d)", voters, len(om.pivots))
	}
	for v := 0; v < voters && cr.Err() == nil; v++ {
		voter := omedVoter{dists: cr.F64s(), ids: cr.U32s()}
		if cr.Err() != nil {
			break
		}
		if len(voter.dists) != len(data) || len(voter.ids) != len(data) {
			cr.Corruptf("voter %d ranks %d/%d points, data set has %d",
				v, len(voter.dists), len(voter.ids), len(data))
			break
		}
		for i := 1; i < len(voter.dists); i++ {
			if voter.dists[i] < voter.dists[i-1] {
				cr.Corruptf("voter %d distances not sorted at %d", v, i)
				break
			}
		}
		for _, id := range voter.ids {
			if int(id) >= len(data) {
				cr.Corruptf("voter %d ranks unknown id %d", v, id)
				break
			}
		}
		om.voters = append(om.voters, voter)
	}
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	return om, nil
}

// --- PermVPTree ---

// Save serializes the permutation VP-tree under kind "perm-vptree": pivot
// ids, the flattened permutation matrix, then the embedded metric tree via
// vptree.Encode.
func (pt *PermVPTree[T]) Save(w io.Writer) error {
	cw := codec.NewWriter(w, codec.KindPermVPTree, pt.sp.Name(), len(pt.data))
	if err := savePivots(cw, pt.pivots); err != nil {
		return err
	}
	cw.Int(pt.opts.NumPivots)
	cw.F64(pt.opts.Gamma)
	cw.F64(pt.opts.Alpha)
	cw.Int(pt.opts.BucketSize)
	cw.I64(pt.opts.Seed)
	m := pt.pivots.M()
	flat := make([]int32, 0, len(pt.perms)*m)
	for _, p := range pt.perms {
		flat = append(flat, p...)
	}
	cw.I32s(flat)
	pt.tree.Encode(cw)
	return cw.Close()
}

// LoadPermVPTree reads an index saved by Save over the same data.
func LoadPermVPTree[T any](cr *codec.Reader, sp space.Space[T], data []T) (*PermVPTree[T], error) {
	if err := cr.Expect(codec.KindPermVPTree, sp.Name(), len(data)); err != nil {
		return nil, err
	}
	pt := &PermVPTree[T]{sp: sp, data: data}
	pt.Bind(pt.search)
	pt.pivots = loadPivots(cr, sp, data)
	pt.opts.NumPivots = cr.Int()
	pt.opts.Gamma = cr.F64()
	pt.opts.Alpha = cr.F64()
	pt.opts.BucketSize = cr.Int()
	pt.opts.Seed = cr.I64()
	flat := cr.I32s()
	if cr.Err() != nil {
		return nil, cr.Err()
	}
	m := pt.pivots.M()
	if pt.opts.NumPivots != m || len(flat) != len(data)*m || pt.opts.Gamma <= 0 {
		cr.Corruptf("inconsistent perm-vptree sections (m=%d, perms=%d, n=%d)", m, len(flat), len(data))
		return nil, cr.Err()
	}
	pt.perms = make([][]int32, len(data))
	for i := range pt.perms {
		pt.perms[i] = flat[i*m : (i+1)*m]
	}
	tree, err := vptree.Decode[[]int32](cr, permutation.RhoMetric{}, pt.perms)
	if err != nil {
		return nil, err
	}
	pt.tree = tree
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	return pt, nil
}
