package core

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"repro/internal/codec"
	"repro/internal/permutation"
	"repro/internal/space"
	"repro/internal/vptree"
)

// Persistence for the permutation methods. Every payload sits in one frame,
// save and load below: the header, then the pivot sets as ids into the data
// slice, then the kind's own sections — the effective (defaulted) option
// struct and the precomputed filtering structure (flattened permutations,
// posting lists, prefix trees, voter arrays) — then the checksum. The raw
// data objects are never stored — loaders receive the same data slice the
// index was built over, validated against the header's recorded size and
// space name — so a single format serves every object type the paper
// evaluates.
//
// Indexes built over explicit pivot objects (NewNAPPWithPivots and friends)
// have no data ids to reference and Save returns codec.ErrNotPersistable.

// maxPivotSets bounds the pivot-set count a file may claim: the PP-index
// stores one set per tree copy, every other kind exactly one.
const maxPivotSets = 1 << 16

// save is the frame of every Save: the header naming this kind, space and
// corpus size, the count and ids of the pivot sets, the kind's payload and
// the checksum trailer. A set of explicit pivot objects has no ids, so such
// an index fails with codec.ErrNotPersistable before a byte is written.
func (p *pipeline[T, S]) save(w io.Writer, tag string, sets []*permutation.Pivots[T], payload func(*codec.Writer)) error {
	ids := make([][]int32, len(sets))
	for i, pv := range sets {
		if ids[i] = pv.SourceIDs(); ids[i] == nil {
			return codec.ErrNotPersistable
		}
	}
	cw := codec.NewWriter(w, tag, p.sp.Name(), len(p.data))
	cw.Int(len(ids))
	for _, set := range ids {
		cw.I32s(set)
	}
	payload(cw)
	return cw.Close()
}

// load is save's mirror, the frame of every loader: the header must name
// this kind, space and corpus size; the pivot sets are rebuilt from their ids
// (exactly sets of them, or up to maxPivotSets when sets is 0); payload
// decodes the rest, which must end exactly where it stops.
func load[T any](cr *codec.Reader, tag string, sp space.Space[T], data []T, sets int, payload func([]*permutation.Pivots[T])) error {
	if err := cr.Expect(tag, sp.Name(), len(data)); err != nil {
		return err
	}
	n := cr.Int()
	if cr.Err() == nil && (n <= 0 || n > maxPivotSets || (sets > 0 && n != sets)) {
		cr.Corruptf("%d pivot sets in a %q file", n, tag)
	}
	var pvs []*permutation.Pivots[T]
	for i := 0; i < n && cr.Err() == nil; i++ {
		// A failed read leaves no ids, which FromIDs refuses; Corruptf
		// then keeps the read's own error.
		pv, err := permutation.FromIDs(sp, data, cr.I32s())
		if err != nil {
			cr.Corruptf("%v", err)
		}
		pvs = append(pvs, pv)
	}
	if cr.Err() == nil {
		payload(pvs)
	}
	return cr.Finish()
}

// --- ScanFilter ---

// Save serializes the filter under its row codec's kind tag.
func (f *ScanFilter[T]) Save(w io.Writer) error {
	return f.save(w, f.rows.tag(), []*permutation.Pivots[T]{f.pivots}, f.rows.save)
}

// LoadScanFilter reads a filter of any of the four brute-force kinds saved
// by Save over the same data; the header's kind tag selects the row codec.
func LoadScanFilter[T any](cr *codec.Reader, sp space.Space[T], data []T) (*ScanFilter[T], error) {
	f := &ScanFilter[T]{data: data}
	switch kind := cr.Header().Kind; kind {
	case codec.KindBruteForce:
		f.rows = &permRows{}
	case codec.KindBinFilter:
		f.rows = &binRows{}
	case codec.KindQuantFilter:
		f.rows = &quantRows{}
	case codec.KindDistVec:
		f.rows = &distRows{}
	default:
		return nil, fmt.Errorf("codec: file holds a %q index, loader expects a brute-force filter", kind)
	}
	err := load(cr, f.rows.tag(), sp, data, 1, func(pvs []*permutation.Pivots[T]) {
		f.pivots = pvs[0]
		f.rows.load(cr, f.pivots.M(), len(data))
	})
	if err != nil {
		return nil, err
	}
	f.bind(f, sp, f.data, f.rows.gamma())
	return f, nil
}

// --- PPIndex ---

// Save serializes the prefix index under kind "pp-index": one pivot set per
// tree, the options, then the trees. Trie nodes are written in preorder with
// children in ascending pivot order, so equal trees always produce identical
// bytes.
func (pp *PPIndex[T]) Save(w io.Writer) error {
	sets := make([]*permutation.Pivots[T], len(pp.trees))
	for i, tree := range pp.trees {
		sets[i] = tree.pivots
	}
	return pp.save(w, codec.KindPPIndex, sets, func(cw *codec.Writer) {
		cw.Int(pp.opts.NumPivots)
		cw.Int(pp.opts.PrefixLen)
		cw.Int(pp.opts.Copies)
		cw.F64(pp.opts.Gamma)
		cw.I64(pp.opts.Seed)
		for _, tree := range pp.trees {
			encodePPNode(cw, tree.root)
		}
	})
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
	pp := &PPIndex[T]{data: data}
	err := load(cr, codec.KindPPIndex, sp, data, 0, func(pvs []*permutation.Pivots[T]) {
		pp.opts.NumPivots = cr.Int()
		pp.opts.PrefixLen = cr.Int()
		pp.opts.Copies = cr.Int()
		pp.opts.Gamma = cr.F64()
		pp.opts.Seed = cr.I64()
		// NumPivots <= n holds for every legitimate file (pivots are sampled
		// from the data set), and bounding it here bounds PrefixLen and hence
		// the node-decoding recursion below — a crafted deep file fails fast
		// instead of exhausting the stack.
		if cr.Err() == nil && (pp.opts.Copies != len(pvs) || pp.opts.NumPivots > len(data) ||
			pp.opts.PrefixLen <= 0 || pp.opts.PrefixLen > pp.opts.NumPivots || pp.opts.Gamma <= 0) {
			cr.Corruptf("inconsistent pp-index options (trees=%d, copies=%d, l=%d, m=%d)",
				len(pvs), pp.opts.Copies, pp.opts.PrefixLen, pp.opts.NumPivots)
		}
		for c, pv := range pvs {
			if pv.M() != pp.opts.NumPivots {
				cr.Corruptf("tree %d has %d pivots, options say %d", c, pv.M(), pp.opts.NumPivots)
			}
			if cr.Err() != nil {
				return
			}
			pp.trees = append(pp.trees, ppTree[T]{pivots: pv, root: decodePPNode(cr, pp.opts.PrefixLen+1, len(data))})
		}
	})
	if err != nil {
		return nil, err
	}
	pp.bind(pp, sp, pp.data, pp.opts.Gamma)
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
	return mf.save(w, codec.KindMIFile, []*permutation.Pivots[T]{mf.pivots}, func(cw *codec.Writer) {
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
	})
}

// LoadMIFile reads an inverted file saved by Save over the same data.
func LoadMIFile[T any](cr *codec.Reader, sp space.Space[T], data []T) (*MIFile[T], error) {
	mf := &MIFile[T]{data: data}
	err := load(cr, codec.KindMIFile, sp, data, 1, func(pvs []*permutation.Pivots[T]) {
		mf.pivots = pvs[0]
		mf.opts.NumPivots = cr.Int()
		mf.opts.NumPivotIndex = cr.Int()
		mf.opts.NumPivotSearch = cr.Int()
		mf.opts.MaxPosDiff = cr.Int()
		mf.opts.Gamma = cr.F64()
		mf.opts.Seed = cr.I64()
		lists := cr.Int()
		if cr.Err() != nil {
			return
		}
		if lists < 0 || lists != mf.pivots.M() || lists != mf.opts.NumPivots ||
			mf.opts.NumPivotSearch <= 0 || mf.opts.NumPivotSearch > mf.opts.NumPivots ||
			mf.opts.Gamma <= 0 {
			cr.Corruptf("inconsistent mi-file options (lists=%d, m=%d, ms=%d)",
				lists, mf.opts.NumPivots, mf.opts.NumPivotSearch)
			return
		}
		mf.postings = make([][]miPosting, lists)
		for p := range mf.postings {
			entries := cr.Length(8) // pos i32 + id u32 per entry
			list := make([]miPosting, entries)
			for i := range list {
				list[i] = miPosting{pos: cr.I32(), id: cr.U32()}
				if cr.Err() != nil {
					return
				}
				if int(list[i].id) >= len(data) {
					cr.Corruptf("posting id %d out of range [0, %d)", list[i].id, len(data))
					return
				}
			}
			if cr.Err() != nil {
				return
			}
			mf.postings[p] = list
		}
	})
	if err != nil {
		return nil, err
	}
	mf.bind(mf, sp, mf.data, mf.opts.Gamma)
	return mf, nil
}

// --- NAPP ---

// Save serializes the NAPP inverted file under kind "napp".
func (na *NAPP[T]) Save(w io.Writer) error {
	return na.save(w, codec.KindNAPP, []*permutation.Pivots[T]{na.pivots}, func(cw *codec.Writer) {
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
	})
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

// loadBitmap reads a list written by saveBitmap into a bitmap over n ids.
// Only strictly ascending ids below n are what Save writes; anything else is
// corruption.
func loadBitmap(cr *codec.Reader, n int) []uint64 {
	count := cr.Length(4)
	if cr.Err() != nil {
		return nil
	}
	b := make([]uint64, (n+63)/64)
	prev := -1
	for i := 0; i < count; i++ {
		id := int(cr.U32())
		if cr.Err() != nil {
			return nil
		}
		if id >= n || id <= prev {
			cr.Corruptf("posting id %d out of order or range (previous %d, %d points)", id, prev, n)
			return nil
		}
		b[id>>6] |= 1 << (id & 63)
		prev = id
	}
	return b
}

// LoadNAPP reads a NAPP index saved by Save over the same data.
func LoadNAPP[T any](cr *codec.Reader, sp space.Space[T], data []T) (*NAPP[T], error) {
	na := &NAPP[T]{data: data}
	err := load(cr, codec.KindNAPP, sp, data, 1, func(pvs []*permutation.Pivots[T]) {
		na.pivots = pvs[0]
		na.opts.NumPivots = cr.Int()
		na.opts.NumPivotIndex = cr.Int()
		na.opts.NumPivotSearch = cr.Int()
		na.opts.MinShared = cr.Int()
		na.opts.MaxCandidates = cr.Int()
		na.opts.Seed = cr.I64()
		lists := cr.Int()
		if cr.Err() != nil {
			return
		}
		if lists != na.pivots.M() || lists != na.opts.NumPivots ||
			na.opts.NumPivotIndex <= 0 || na.opts.NumPivotIndex > na.opts.NumPivots ||
			na.opts.NumPivotSearch <= 0 || na.opts.NumPivotSearch > na.opts.NumPivots ||
			na.opts.NumPivotSearch > 255 || na.opts.MinShared <= 0 {
			cr.Corruptf("inconsistent napp options (lists=%d, m=%d, mi=%d, ms=%d, t=%d)",
				lists, na.opts.NumPivots, na.opts.NumPivotIndex,
				na.opts.NumPivotSearch, na.opts.MinShared)
			return
		}
		na.bitmaps = make([][]uint64, lists)
		for p := range na.bitmaps {
			if na.bitmaps[p] = loadBitmap(cr, len(data)); cr.Err() != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	na.bind(na, sp, na.data, 0)
	return na, nil
}

// --- OMEDRANK ---

// Save serializes the rank-aggregation index under kind "omedrank": the
// voters as the pivot set, the options, then each voter's sorted list.
func (om *OMEDRANK[T]) Save(w io.Writer) error {
	return om.save(w, codec.KindOMEDRANK, []*permutation.Pivots[T]{om.pivots}, func(cw *codec.Writer) {
		cw.Int(om.opts.NumVoters)
		cw.F64(om.opts.Quorum)
		cw.F64(om.opts.Gamma)
		cw.I64(om.opts.Seed)
		cw.Int(len(om.voters))
		for _, v := range om.voters {
			cw.F64s(v.dists)
			cw.U32s(v.ids)
		}
	})
}

// LoadOMEDRANK reads an index saved by Save over the same data.
func LoadOMEDRANK[T any](cr *codec.Reader, sp space.Space[T], data []T) (*OMEDRANK[T], error) {
	om := &OMEDRANK[T]{data: data}
	err := load(cr, codec.KindOMEDRANK, sp, data, 1, func(pvs []*permutation.Pivots[T]) {
		om.pivots = pvs[0]
		om.opts.NumVoters = cr.Int()
		om.opts.Quorum = cr.F64()
		om.opts.Gamma = cr.F64()
		om.opts.Seed = cr.I64()
		voters := cr.Int()
		// The voter count must match the pivot set and fit the byte-packed
		// quorum counters (maxVoters), as NewOMEDRANK requires.
		if cr.Err() == nil && (voters <= 0 || voters != om.pivots.M() || voters > maxVoters ||
			om.opts.Quorum <= 0 || om.opts.Quorum > 1 || om.opts.Gamma <= 0) {
			cr.Corruptf("inconsistent omedrank options (voters=%d, pivots=%d)", voters, om.pivots.M())
		}
		for v := 0; v < voters && cr.Err() == nil; v++ {
			voter := omedVoter{dists: cr.F64s(), ids: cr.U32s()}
			if cr.Err() != nil {
				return
			}
			if len(voter.dists) != len(data) || len(voter.ids) != len(data) {
				cr.Corruptf("voter %d ranks %d/%d points, data set has %d",
					v, len(voter.dists), len(voter.ids), len(data))
				return
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
	})
	if err != nil {
		return nil, err
	}
	om.bind(om, sp, om.data, om.opts.Gamma)
	return om, nil
}

// --- PermVPTree ---

// Save serializes the permutation VP-tree under kind "perm-vptree": pivot
// ids, the options, the flattened permutation matrix, then the embedded
// metric tree via vptree.Encode.
func (pt *PermVPTree[T]) Save(w io.Writer) error {
	return pt.save(w, codec.KindPermVPTree, []*permutation.Pivots[T]{pt.pivots}, func(cw *codec.Writer) {
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
	})
}

// LoadPermVPTree reads an index saved by Save over the same data.
func LoadPermVPTree[T any](cr *codec.Reader, sp space.Space[T], data []T) (*PermVPTree[T], error) {
	pt := &PermVPTree[T]{data: data}
	err := load(cr, codec.KindPermVPTree, sp, data, 1, func(pvs []*permutation.Pivots[T]) {
		pt.pivots = pvs[0]
		pt.opts.NumPivots = cr.Int()
		pt.opts.Gamma = cr.F64()
		pt.opts.Alpha = cr.F64()
		pt.opts.BucketSize = cr.Int()
		pt.opts.Seed = cr.I64()
		flat := cr.I32s()
		if cr.Err() != nil {
			return
		}
		m := pt.pivots.M()
		if pt.opts.NumPivots != m || len(flat) != len(data)*m || pt.opts.Gamma <= 0 {
			cr.Corruptf("inconsistent perm-vptree sections (m=%d, perms=%d, n=%d)", m, len(flat), len(data))
			return
		}
		pt.perms = make([][]int32, len(data))
		for i := range pt.perms {
			pt.perms[i] = flat[i*m : (i+1)*m]
		}
		// Decode fails only through cr's sticky error, which the frame reports.
		pt.tree, _ = vptree.Decode[[]int32](cr, permutation.RhoMetric{}, pt.perms)
	})
	if err != nil {
		return nil, err
	}
	pt.bind(pt, sp, pt.data, pt.opts.Gamma)
	return pt, nil
}
