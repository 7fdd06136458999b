package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/permutation"
	"repro/internal/space"
	"repro/internal/topk"
)

// kind is what one permutation method supplies to the pipeline: its filter
// over its own precomputed structure, on its own per-query scratch S.
type kind[T, S any] interface {
	// filter returns the query's candidates, how many ids the filter
	// looked at to pick them (the traced FilterCandidates) and how many
	// pivot distances it computed (PivotDistances). g is the candidate
	// budget, max(k, gamma*n) clamped to n, which a kind built without a
	// gamma ignores; p carries the query's other knobs.
	filter(s *S, query T, g int, p index.Params) (c candidates, scanned, pivots int)
	// size is the heap footprint of the filter structure in bytes and the
	// number of pivot distances building it spent on each data point.
	size() (bytes int64, pivotsPerPoint int)
}

// candidates is a filter's output: bare ids, refined as they are, or scored
// entries, of which the pipeline refines the g best (smallest score, then
// smallest id) when there are more than g. A filter fills one of the two;
// ids must be unique.
type candidates struct {
	ids    []uint32
	scored []topk.Neighbor
}

// pipeline is the filter-and-refine search of §2, written once. Every kind
// embeds it and binds itself at construction and load; the pipeline answers
// index.Index and index.Sized for the kind and owns everything that is not
// the filter: the candidate budget, the trace clock and counters, the
// selection among scored candidates, and the refine (space.Nearest).
type pipeline[T, S any] struct {
	sp   space.Space[T]
	data []T
	// counts is the data's composition table when sp is exactly one of the
	// Levenshteins (space.CountTable), which lets the refine skip the
	// candidates it proves too far; nil otherwise.
	counts []space.Counts
	gamma  float64
	kind   kind[T, S]
	index.Pooled[T, pipeScratch[S]]
}

// pipeScratch is the per-query state of one search: the kind's filter
// scratch, the ids of the scored candidates kept, and the refine's scratch.
type pipeScratch[S any] struct {
	filter S
	ids    []uint32
	sp     space.Scratch
}

// bind attaches the pipeline to its kind and builds the refine stage's
// composition table, on the build and the load path alike. gamma is the
// built candidate fraction, 0 for a kind that has none. Call once, before
// the index is shared.
func (p *pipeline[T, S]) bind(k kind[T, S], sp space.Space[T], data []T, gamma float64) {
	p.kind, p.sp, p.data, p.gamma = k, sp, data, gamma
	p.counts = space.CountTable(sp, data)
	p.Bind(p.search)
}

// Stats implements index.Sized.
func (p *pipeline[T, S]) Stats() index.Stats {
	bytes, perPoint := p.kind.size()
	return index.Stats{Bytes: bytes, BuildDistances: int64(len(p.data)) * int64(perPoint)}
}

// search is the one query path of all nine kinds, run on pooled scratch by
// the embedded index.Pooled (which answers k <= 0). With a trace riding the
// query, the kind's filter is attributed to the filter stage, the selection
// among scored candidates and the copy of their ids to merge, and
// space.Nearest stamps the rest; without one the clock is never read.
func (p *pipeline[T, S]) search(s *pipeScratch[S], dst []topk.Neighbor, query T, opts index.Options) []topk.Neighbor {
	k, tr := opts.K, opts.Trace
	g := gammaCount(cmp.Or(opts.Params.Gamma, p.gamma), len(p.data), k)
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	c, scanned, pivots := p.kind.filter(&s.filter, query, g, opts.Params)
	if tr != nil {
		tr.FilterCandidates += int64(scanned)
		tr.PivotDistances += int64(pivots)
		obs.AddSince(&tr.FilterNs, t0)
		t0 = time.Now()
	}
	if c.scored != nil {
		if len(c.scored) > g {
			c.scored = topk.SelectK(c.scored, g)
		}
		s.ids = s.ids[:0]
		for _, nb := range c.scored {
			s.ids = append(s.ids, nb.ID)
		}
		c.ids = s.ids
		if tr != nil {
			obs.AddSince(&tr.MergeNs, t0)
		}
	}
	return space.Nearest(p.sp, &s.sp, dst, query, p.data, p.counts, c.ids, k, tr)
}

// errEmpty rejects a build over no data: there is nothing to sample pivots
// from and no query could be answered.
var errEmpty = errors.New("core: empty data set")

// seeded is the prelude of every constructor: it rejects an empty corpus,
// clamps the requested pivot count *m to the corpus size (through the
// pointer, so the kind records the effective value), and returns the random
// source of the build.
func seeded[T any](data []T, m *int, seed int64) (*rand.Rand, error) {
	if len(data) == 0 {
		return nil, errEmpty
	}
	*m = min(*m, len(data))
	return rand.New(rand.NewSource(seed)), nil
}

// samplePivots is seeded followed by the one pivot sample most kinds draw.
func samplePivots[T any](sp space.Space[T], data []T, m *int, seed int64) (*permutation.Pivots[T], error) {
	r, err := seeded(data, m, seed)
	if err != nil {
		return nil, err
	}
	pv, err := permutation.Sample(r, sp, data, *m)
	if err != nil {
		return nil, fmt.Errorf("core: sampling pivots: %w", err)
	}
	return pv, nil
}
