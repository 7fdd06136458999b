// Package index defines the common interface satisfied by every k-NN search
// structure in this repository — the permutation methods under internal/core
// as well as the VP-tree, multi-probe LSH, k-NN graph and sequential-scan
// baselines. The evaluation harness (internal/eval, internal/experiments)
// works against this interface only, and the serving stack maps a
// sub-corpus index's answers back to corpus ids through Subset.
package index

import (
	"context"

	"repro/internal/obs"
	"repro/internal/scratch"
	"repro/internal/topk"
)

// Params are the resolved query-time method parameters — the knobs the
// paper varies over one fixed index to trace a recall/efficiency curve. A
// zero field means "this index's build-time default"; an index reads only
// the fields of its own kind and ignores the rest. The textual key/alias/
// range table that produces a Params from user input is Resolve's
// (params.go), shared by the serving daemon and the experiment harness.
type Params struct {
	// Gamma is the candidate fraction of every core kind built with one
	// (the four brute-force scans, PP-index, MI-file, OMEDRANK and the
	// permutation VP-tree; NAPP's budget is its threshold t).
	Gamma float64
	// MinShared is NAPP's t.
	MinShared int
	// AlphaLeft and AlphaRight are the VP-tree pruning stretch factors.
	AlphaLeft, AlphaRight float64
	// InitAttempts and EfSearch are the proximity graph's restart count
	// and result-frontier size.
	InitAttempts, EfSearch int
	// Probes is MPLSH's T. Zero probes is a meaningful setting, so — as in
	// lsh.Options — a negative value means none.
	Probes int
}

// Overlay returns p with every field that over sets replaced by over's
// value: the per-key merge of a request's params onto serving defaults.
func (p Params) Overlay(over Params) Params {
	if over.Gamma != 0 {
		p.Gamma = over.Gamma
	}
	if over.MinShared != 0 {
		p.MinShared = over.MinShared
	}
	if over.AlphaLeft != 0 {
		p.AlphaLeft = over.AlphaLeft
	}
	if over.AlphaRight != 0 {
		p.AlphaRight = over.AlphaRight
	}
	if over.InitAttempts != 0 {
		p.InitAttempts = over.InitAttempts
	}
	if over.EfSearch != 0 {
		p.EfSearch = over.EfSearch
	}
	if over.Probes != 0 {
		p.Probes = over.Probes
	}
	return p
}

// Options is everything one query carries besides the query object. It is
// passed by value through every layer of the search path (a pointer through
// an interface call would escape and cost the warm path an allocation).
type Options struct {
	// K is the number of neighbors requested; K <= 0 answers nothing.
	K int
	// Ctx, when non-nil, cancels cooperatively: the layers that fan one
	// request out (the batch engine between queries, the tiered tree
	// between components) stop at the next boundary once it is done. A
	// single index search runs to completion.
	Ctx context.Context
	// Trace, when non-nil, receives the query's per-stage breakdown. The
	// trace belongs to the call that carries it, so a nil Trace costs one
	// nil check per stage and nothing can write to it after the call
	// returns.
	Trace *obs.QueryTrace
	// Params are the query-time method parameters.
	Params Params
}

// Err reports the cancellation state of o.Ctx (nil when there is none).
func (o Options) Err() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// Index answers k-nearest-neighbor queries over a fixed data set. The
// result is ordered by increasing distance and contains at most k entries
// (fewer if the index holds fewer points or, for approximate filter-based
// methods, if the candidate set is exhausted). IDs are positions in the
// data slice the index was built from.
//
// SearchAppend is the one query path: it appends the answer to dst and
// returns the extended slice. Per-query state lives in scratch pooled inside
// the index, so a warm call with a dst of sufficient capacity performs zero
// allocations. Search(q, k) is SearchAppend(nil, q, Options{K: k}) and costs
// exactly the one result-slice allocation.
//
// Both methods must be safe for concurrent use by multiple goroutines, and
// an answer is a pure function of (index, query, opts): searching changes
// nothing a later search, a Save or another replica could observe. That is
// what lets the batch engine fan any index out, and a fleet treat replicas
// of one file as interchangeable (indextest.Conformance checks it per kind).
type Index[T any] interface {
	Search(query T, k int) []topk.Neighbor
	SearchAppend(dst []topk.Neighbor, query T, opts Options) []topk.Neighbor
	// Name identifies the method in experiment reports, e.g. "napp".
	Name() string
}

// Subset serves an index built over a sub-corpus in the ids of the whole
// corpus: the inner index's id i is corpus id IDs[i]. IDs must be strictly
// increasing (shard.IDs and the mutable tier's id lists are), so an answer in
// canonical (dist, id) order stays canonical after translation, and the
// answers of disjoint Subsets over one corpus merge by topk.SelectK over
// their concatenation into exactly what one index over the whole corpus
// answers. A nil IDs leaves ids unchanged. A shard daemon serves a Subset;
// the mutable tier's runs are not indexes and translate their own ids.
type Subset[T any] struct {
	Index[T]
	IDs []uint32
}

// Search implements Index.
func (s Subset[T]) Search(query T, k int) []topk.Neighbor {
	return s.SearchAppend(nil, query, Options{K: k})
}

// SearchAppend implements Index. Only the entries it appends are translated;
// dst's existing prefix is left as it was.
func (s Subset[T]) SearchAppend(dst []topk.Neighbor, query T, opts Options) []topk.Neighbor {
	start := len(dst)
	dst = s.Index.SearchAppend(dst, query, opts)
	if s.IDs != nil {
		for i := start; i < len(dst); i++ {
			dst[i].ID = s.IDs[dst[i].ID]
		}
	}
	return dst
}

// Pooled is the shared adapter behind every index's two search methods. An
// index embeds it, hand-writes one search function that threads its
// per-query scratch state S explicitly, and binds that function at
// construction; Pooled runs it on a scratch state drawn from a per-index
// pool, so concurrent queries each own their scratch and a warm query
// reuses buffers grown by earlier ones.
type Pooled[T, S any] struct {
	fn   func(s *S, dst []topk.Neighbor, query T, opts Options) []topk.Neighbor
	pool scratch.Pool[S]
}

// Bind sets the search function. Call once, before the index is shared.
func (p *Pooled[T, S]) Bind(fn func(s *S, dst []topk.Neighbor, query T, opts Options) []topk.Neighbor) {
	p.fn = fn
}

// Search implements Index.
func (p *Pooled[T, S]) Search(query T, k int) []topk.Neighbor {
	return p.SearchAppend(nil, query, Options{K: k})
}

// SearchAppend implements Index. A k <= 0 answers nothing: dst comes back
// unchanged and the search function never runs, so none checks k itself.
func (p *Pooled[T, S]) SearchAppend(dst []topk.Neighbor, query T, opts Options) []topk.Neighbor {
	if opts.K <= 0 {
		return dst
	}
	s := p.pool.Get()
	defer p.pool.Put(s)
	return p.fn(s, dst, query, opts)
}

// Stats describes index footprint for Table 2 style reports.
type Stats struct {
	// Bytes is the approximate heap footprint of the index structure,
	// excluding the raw data objects themselves.
	Bytes int64
	// BuildDistances is the number of distance computations performed
	// during construction, when the index tracks it (0 otherwise).
	BuildDistances int64
}

// Sized is implemented by indexes that can report their memory footprint.
type Sized interface {
	Stats() Stats
}
