package router

import (
	"fmt"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/topk"
)

// LocalShard is one in-memory shard: an index built over a corpus subset
// plus the subset's global ids. IDs[i] is the corpus-global id of the
// shard-local id i and must be strictly increasing (internal/shard.IDs
// produces exactly this) — a monotone map keeps a (dist, local-id) ordered
// result list ordered by (dist, global-id) after translation. A nil IDs
// means the shard already answers in global ids (the S=1 degenerate case).
type LocalShard[T any] struct {
	Index index.Index[T]
	IDs   []uint32
}

// Local scatter-gathers over in-memory shard indexes: the same partition,
// id-translation and merge semantics as the HTTP front tier (Router), with
// the sockets cut out. It exists so the merge logic is unit-testable
// against every registered index kind without a daemon, and so the sharded
// query path can sit directly in benchmarks (`BenchmarkSearchHot/
// napp-sharded3`) next to its unsharded counterpart.
//
// Local implements index.Index[T]: a query probes the shards serially (the
// calling worker is the unit of parallelism, as everywhere else on the
// query hot path), every shard receives the query's options — params and
// trace included — results land in one pooled buffer, and the canonical
// merge happens in place, so the whole sharded path keeps the
// zero-steady-state-allocation property of the underlying indexes (guarded
// in internal/core/alloc_test.go style by this package's tests).
type Local[T any] struct {
	shards []LocalShard[T]
	name   string
	index.Pooled[T, []topk.Neighbor]
}

// NewLocal builds a scatter-gather view over shards.
func NewLocal[T any](shards []LocalShard[T]) (*Local[T], error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("router: no shards")
	}
	for i, s := range shards {
		if s.Index == nil {
			return nil, fmt.Errorf("router: shard %d has no index", i)
		}
	}
	l := &Local[T]{
		shards: shards,
		name:   fmt.Sprintf("%s-sharded%d", shards[0].Index.Name(), len(shards)),
	}
	l.Bind(l.search)
	return l, nil
}

// Name implements index.Index: the underlying method tagged with the shard
// count, e.g. "napp-sharded3".
func (l *Local[T]) Name() string { return l.name }

// Shards returns the shard count.
func (l *Local[T]) Shards() int { return len(l.shards) }

// Stats implements index.Sized: the summed footprint of the shard indexes
// plus the id-translation tables.
func (l *Local[T]) Stats() index.Stats {
	var st index.Stats
	for _, sh := range l.shards {
		if sized, ok := sh.Index.(index.Sized); ok {
			s := sized.Stats()
			st.Bytes += s.Bytes
			st.BuildDistances += s.BuildDistances
		}
		st.Bytes += int64(len(sh.IDs)) * 4
	}
	return st
}

// translate rewrites a shard-local result list to global ids in place.
func translate(ns []topk.Neighbor, ids []uint32) {
	if ids == nil {
		return
	}
	for i := range ns {
		ns[i].ID = ids[ns[i].ID]
	}
}

// search probes every shard with the query's options, translates ids and
// merges canonically; merge time is attributed to the trace when attached.
func (l *Local[T]) search(buf *[]topk.Neighbor, dst []topk.Neighbor, query T, opts index.Options) []topk.Neighbor {
	if opts.K <= 0 {
		return dst
	}
	b := (*buf)[:0]
	for _, sh := range l.shards {
		start := len(b)
		b = sh.Index.SearchAppend(b, query, opts)
		translate(b[start:], sh.IDs)
	}
	var mergeStart time.Time
	if opts.Trace != nil {
		mergeStart = time.Now()
	}
	dst = append(dst, topk.SelectK(b, opts.K)...)
	if opts.Trace != nil {
		obs.AddSince(&opts.Trace.MergeNs, mergeStart)
	}
	*buf = b[:0]
	return dst
}
