package vptree

import (
	"io"

	"repro/internal/codec"
	"repro/internal/space"
)

// Persistence. The payload stores the construction options, the build-time
// distance counter and the node structure in preorder; data objects are not
// stored — Load receives the same data slice the tree was built over (the
// header records its length for validation). Node encoding:
//
//	leaf:     u8(1)  bucket []u32
//	internal: u8(2)  pivot u32  radius f64  left  right
//
// Every data id must appear exactly once across pivots and buckets; Decode
// verifies this, so a structurally valid file always yields a searchable
// tree.

const (
	nodeLeaf     = 1
	nodeInternal = 2
)

// Save serializes the tree to w in the codec format under kind "vptree".
func (t *Tree[T]) Save(w io.Writer) error {
	cw := codec.NewWriter(w, codec.KindVPTree, t.sp.Name(), len(t.data))
	t.Encode(cw)
	return cw.Close()
}

// Encode writes the tree payload into an open codec writer. It exists
// separately from Save so indexes embedding a tree (core.PermVPTree) can
// nest it inside their own payload.
func (t *Tree[T]) Encode(cw *codec.Writer) {
	cw.Int(t.opts.BucketSize)
	cw.F64(t.opts.AlphaLeft)
	cw.F64(t.opts.AlphaRight)
	cw.F64(t.opts.Beta)
	cw.I64(t.opts.Seed)
	cw.I64(t.buildDist)
	cw.Int(t.nodes)
	encodeNode(cw, t.root)
}

func encodeNode(cw *codec.Writer, n *node) {
	if n.bucket != nil {
		cw.U8(nodeLeaf)
		cw.U32s(n.bucket)
		return
	}
	cw.U8(nodeInternal)
	cw.U32(n.pivot)
	cw.F64(n.radius)
	encodeNode(cw, n.left)
	encodeNode(cw, n.right)
}

// Load reads a tree saved by Save. sp and data must match the originals:
// the recorded space name and data-set size are validated against them.
func Load[T any](cr *codec.Reader, sp space.Space[T], data []T) (*Tree[T], error) {
	if err := cr.Expect(codec.KindVPTree, sp.Name(), len(data)); err != nil {
		return nil, err
	}
	t, err := Decode(cr, sp, data)
	if err != nil {
		return nil, err
	}
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	return t, nil
}

// Decode reads the tree payload written by Encode, leaving cr positioned
// after it.
func Decode[T any](cr *codec.Reader, sp space.Space[T], data []T) (*Tree[T], error) {
	t := &Tree[T]{sp: sp, data: data, symmetric: sp.Properties().Symmetric}
	t.Bind(t.search)
	t.opts.BucketSize = cr.Int()
	t.opts.AlphaLeft = cr.F64()
	t.opts.AlphaRight = cr.F64()
	t.opts.Beta = cr.F64()
	t.opts.Seed = cr.I64()
	t.buildDist = cr.I64()
	t.nodes = cr.Int()
	// A valid tree never nests deeper than one internal node per data
	// point; the cap turns corrupt self-referential payloads into errors
	// instead of unbounded recursion.
	seen := make([]bool, len(data))
	var total int
	t.root = decodeNode(cr, len(data)+1, seen, &total)
	if err := cr.Err(); err != nil {
		return nil, err
	}
	if total != len(data) {
		cr.Corruptf("tree holds %d ids, data set has %d", total, len(data))
		return nil, cr.Err()
	}
	return t, nil
}

func decodeNode(cr *codec.Reader, depth int, seen []bool, total *int) *node {
	if depth <= 0 {
		cr.Corruptf("tree nesting exceeds data size")
		return nil
	}
	claim := func(id uint32) bool {
		if int(id) >= len(seen) {
			cr.Corruptf("node id %d out of range [0, %d)", id, len(seen))
			return false
		}
		if seen[id] {
			cr.Corruptf("node id %d appears twice", id)
			return false
		}
		seen[id] = true
		*total++
		return true
	}
	switch tag := cr.U8(); tag {
	case nodeLeaf:
		bucket := cr.U32s()
		if cr.Err() != nil {
			return nil
		}
		for _, id := range bucket {
			if !claim(id) {
				return nil
			}
		}
		if bucket == nil {
			// An empty bucket decodes to nil, but search treats a nil
			// bucket as an internal node; normalize.
			bucket = []uint32{}
		}
		return &node{bucket: bucket}
	case nodeInternal:
		n := &node{pivot: cr.U32(), radius: cr.F64()}
		if cr.Err() != nil || !claim(n.pivot) {
			return nil
		}
		n.left = decodeNode(cr, depth-1, seen, total)
		n.right = decodeNode(cr, depth-1, seen, total)
		if cr.Err() != nil {
			return nil
		}
		return n
	default:
		cr.Corruptf("unknown node tag %d", tag)
		return nil
	}
}
