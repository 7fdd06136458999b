package lsh

import (
	"io"
	"sort"

	"repro/internal/codec"
)

// Persistence. MPLSH is the one index whose structure is not derivable from
// data ids alone: the random projection directions and offsets are part of
// the index. They are plain floats, so the payload stays object-type-free
// like every other kind: options, dimensionality, quantization width, then
// per table the M projection vectors, the M offsets, and the bucket map in
// ascending key order (so equal indexes serialize to identical bytes).

// spaceName is the space tag recorded in MPLSH headers. The index hardcodes
// L2 over dense vectors (the paper's restriction), so the tag is fixed too.
const spaceName = "l2"

// Save serializes the index under kind "mplsh".
func (x *MPLSH) Save(w io.Writer) error {
	cw := codec.NewWriter(w, codec.KindMPLSH, spaceName, len(x.data))
	cw.Int(x.opts.Tables)
	cw.Int(x.opts.Hashes)
	cw.Int(x.opts.Probes)
	cw.F64(x.opts.Width)
	cw.I64(x.opts.Seed)
	cw.Int(x.dim)
	cw.F64(x.w)
	cw.Int(len(x.tables))
	for _, tb := range x.tables {
		for _, v := range tb.a {
			cw.F32s(v)
		}
		cw.F64s(tb.b)
		keys := make([]uint64, 0, len(tb.buckets))
		for k := range tb.buckets {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		cw.U64(uint64(len(keys)))
		for _, k := range keys {
			cw.U64(k)
			cw.U32s(tb.buckets[k])
		}
	}
	return cw.Close()
}

// Load reads an index saved by Save over the same data.
func Load(cr *codec.Reader, data [][]float32) (*MPLSH, error) {
	if err := cr.Expect(codec.KindMPLSH, spaceName, len(data)); err != nil {
		return nil, err
	}
	x := &MPLSH{data: data}
	x.Bind(x.search)
	x.opts.Tables = cr.Int()
	x.opts.Hashes = cr.Int()
	x.opts.Probes = cr.Int()
	x.opts.Width = cr.F64()
	x.opts.Seed = cr.I64()
	x.dim = cr.Int()
	x.w = cr.F64()
	tables := cr.Int()
	if cr.Err() == nil {
		// Hashes and Probes bound per-table allocations and the
		// perturbation-set enumeration; anything beyond these caps is
		// corruption, not configuration (the paper uses M=12, T=10).
		if tables <= 0 || tables != x.opts.Tables || x.opts.Hashes <= 0 || x.opts.Hashes > 4096 ||
			x.opts.Probes < 0 || x.opts.Probes > 1<<20 || x.w <= 0 ||
			len(data) == 0 || x.dim != len(data[0]) {
			cr.Corruptf("inconsistent mplsh options (L=%d, M=%d, T=%d, dim=%d, w=%g)",
				tables, x.opts.Hashes, x.opts.Probes, x.dim, x.w)
		}
	}
	for t := 0; t < tables && cr.Err() == nil; t++ {
		tb := table{
			a: make([][]float32, x.opts.Hashes),
			b: nil,
		}
		for h := range tb.a {
			tb.a[h] = cr.F32s()
			if cr.Err() != nil {
				break
			}
			if len(tb.a[h]) != x.dim {
				cr.Corruptf("table %d hash %d projects %d dims, vectors have %d",
					t, h, len(tb.a[h]), x.dim)
				break
			}
		}
		tb.b = cr.F64s()
		if cr.Err() == nil && len(tb.b) != x.opts.Hashes {
			cr.Corruptf("table %d has %d offsets, want %d", t, len(tb.b), x.opts.Hashes)
		}
		buckets := cr.Length(16) // key u64 + id-list length prefix u64 minimum per bucket
		if cr.Err() == nil {
			tb.buckets = make(map[uint64][]uint32, buckets)
			for i := 0; i < buckets; i++ {
				key := cr.U64()
				ids := cr.U32s()
				if cr.Err() != nil {
					break
				}
				for _, id := range ids {
					if int(id) >= len(data) {
						cr.Corruptf("bucket id %d out of range [0, %d)", id, len(data))
						break
					}
				}
				if cr.Err() != nil {
					break
				}
				tb.buckets[key] = ids
			}
		}
		if cr.Err() != nil {
			break
		}
		x.tables = append(x.tables, tb)
	}
	if err := cr.Finish(); err != nil {
		return nil, err
	}
	return x, nil
}
