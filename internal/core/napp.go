package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/permutation"
	"repro/internal/scratch"
	"repro/internal/space"
	"repro/internal/topk"
)

// NAPPOptions configures NewNAPP.
type NAPPOptions struct {
	// NumPivots is the total pivot count m. The paper finds values
	// between 500 and 2000 a good trade-off (gains flatten beyond 500)
	// at the cost of m distance computations per permutation. Default
	// 512.
	NumPivots int
	// NumPivotIndex (mi) is how many of the closest pivots each data
	// point posts to. The paper found mi = 32 to work well. Default 32.
	NumPivotIndex int
	// NumPivotSearch (ms) is how many of the query's closest pivots
	// have their posting lists scanned. Defaults to NumPivotIndex.
	NumPivotSearch int
	// MinShared (t) discards candidates sharing fewer than t indexed
	// pivots with the query. Smaller t = higher recall, more
	// candidates. Default 2.
	MinShared int
	// MaxCandidates caps the number of candidates passed to the refine
	// stage; candidates are first sorted by the number of shared pivots
	// (descending), the "additional filtering step" the paper applies
	// for expensive distances. 0 means no cap.
	MaxCandidates int
	// Seed drives pivot sampling.
	Seed int64
}

func (o *NAPPOptions) defaults() {
	if o.NumPivots <= 0 {
		o.NumPivots = 512
	}
	if o.NumPivotIndex <= 0 {
		o.NumPivotIndex = 32
	}
	if o.NumPivotIndex > o.NumPivots {
		o.NumPivotIndex = o.NumPivots
	}
	if o.NumPivotSearch <= 0 {
		o.NumPivotSearch = o.NumPivotIndex
	}
	if o.NumPivotSearch > o.NumPivots {
		o.NumPivotSearch = o.NumPivots
	}
	if o.NumPivotSearch > 255 {
		// ScanCount counters are bytes; cap ms so they cannot wrap.
		o.NumPivotSearch = 255
	}
	if o.MinShared <= 0 {
		o.MinShared = 2
	}
	if o.MinShared > o.NumPivotSearch {
		o.MinShared = o.NumPivotSearch
	}
}

// NAPP is the Neighborhood APProximation index of Tellez et al. (§2.3): an
// inverted file mapping each pivot to the ids of the data points that have
// it among their mi closest pivots. Queries merge the posting lists of the
// query's ms closest pivots with the ScanCount algorithm (Li et al.), keep
// candidates sharing at least t pivots, and refine with the true distance.
//
// Per the paper's §3.2 our implementation does not compress the index and
// uses plain ScanCount counters that are reset for every query (their
// memset); posting lists store ascending ids for cache-friendly merging.
type NAPP[T any] struct {
	sp       space.Space[T]
	data     []T
	pivots   *permutation.Pivots[T]
	postings [][]uint32 // pivot -> ascending data ids
	opts     NAPPOptions
	// deleted holds tombstoned ids (see napp_dynamic.go); nil until the
	// first Delete.
	deleted map[uint32]struct{}
	// Pooled runs search on pooled per-query state. Where the paper resets
	// ScanCount counters with a per-query O(N) memset, the pooled
	// epoch-stamped arena makes the reset O(1); the remaining buffers are
	// grow-only, so a warm steady state performs no allocations.
	index.Pooled[T, nappScratch]
}

// nappScratch is the per-query state of one NAPP search.
type nappScratch struct {
	perm     permutation.Scratch
	counters scratch.Counters
	cands    []uint32
	// sel holds (candidate, shared-pivot score) pairs for the
	// MaxCandidates partial selection.
	sel   []topk.Neighbor
	queue topk.Queue
}

// NewNAPP samples pivots and builds the inverted file (in parallel).
func NewNAPP[T any](sp space.Space[T], data []T, opts NAPPOptions) (*NAPP[T], error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty data set")
	}
	if opts.NumPivots <= 0 {
		opts.NumPivots = 512
	}
	if opts.NumPivots > len(data) {
		opts.NumPivots = len(data)
	}
	r := rand.New(rand.NewSource(opts.Seed))
	pv, err := permutation.Sample(r, sp, data, opts.NumPivots)
	if err != nil {
		return nil, fmt.Errorf("core: sampling pivots: %w", err)
	}
	return NewNAPPWithPivots(sp, data, pv, opts)
}

// NewNAPPWithPivots builds the index over an explicit pivot set, bypassing
// random sampling. Tests use it to reproduce the paper's worked example.
func NewNAPPWithPivots[T any](sp space.Space[T], data []T, pv *permutation.Pivots[T], opts NAPPOptions) (*NAPP[T], error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty data set")
	}
	opts.NumPivots = pv.M()
	opts.defaults()
	mi := opts.NumPivotIndex
	orders := computeOrders(pv, data, mi)
	postings := make([][]uint32, opts.NumPivots)
	for i := 0; i < len(data); i++ {
		for _, p := range orders[i*mi : (i+1)*mi] {
			postings[p] = append(postings[p], uint32(i))
		}
	}
	na := &NAPP[T]{sp: sp, data: data, pivots: pv, postings: postings, opts: opts}
	na.Bind(na.search)
	return na, nil
}

// Name implements index.Index.
func (na *NAPP[T]) Name() string { return "napp" }

// Stats implements index.Sized.
func (na *NAPP[T]) Stats() index.Stats {
	var cells int64
	for _, p := range na.postings {
		cells += int64(len(p))
	}
	return index.Stats{
		Bytes:          cells*4 + int64(len(na.postings))*24,
		BuildDistances: int64(len(na.data)) * int64(na.pivots.M()),
	}
}

// Options returns the effective (defaulted) parameters.
func (na *NAPP[T]) Options() NAPPOptions { return na.opts }

// search is the index's one query path, run on pooled scratch by the
// embedded index.Pooled.
func (na *NAPP[T]) search(s *nappScratch, dst []topk.Neighbor, query T, opts index.Options) []topk.Neighbor {
	k, tr := opts.K, opts.Trace
	if k <= 0 {
		return dst
	}
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	qorder := na.pivots.OrderWith(&s.perm, query)
	ms := na.opts.NumPivotSearch
	t := cmp.Or(opts.Params.MinShared, na.opts.MinShared)

	// ScanCount merge: one counter per data point, logically zeroed per
	// query by the arena's epoch bump (the paper's memset, made O(1)).
	// Counts fit a byte because ms is capped at 255.
	s.counters.Begin(len(na.data))
	cands := s.cands[:0]
	for _, p := range qorder[:ms] {
		for _, id := range na.postings[p] {
			if int(s.counters.Inc(id)) == t {
				cands = append(cands, id)
			}
		}
	}
	if na.deleted != nil {
		kept := cands[:0]
		for _, id := range cands {
			if _, dead := na.deleted[id]; !dead {
				kept = append(kept, id)
			}
		}
		cands = kept
	}
	if tr != nil {
		tr.FilterCandidates += int64(len(cands))
		obs.AddSince(&tr.FilterNs, t0)
		t0 = time.Now()
	}
	if max := na.opts.MaxCandidates; max > 0 && len(cands) > max {
		// Additional filtering for expensive distances: prefer
		// candidates sharing more pivots with the query, then smaller
		// ids for determinism. Scoring by negated count turns that into
		// the (Dist, ID) order of topk.SelectK, whose partial selection
		// replaces the former full sort of all candidates.
		sel := s.sel[:0]
		for _, id := range cands {
			sel = append(sel, topk.Neighbor{ID: id, Dist: -float64(s.counters.Count(id))})
		}
		s.sel = sel
		best := topk.SelectK(sel, max)
		cands = cands[:0]
		for _, c := range best {
			cands = append(cands, c.ID)
		}
	}
	s.cands = cands
	if tr != nil {
		obs.AddSince(&tr.MergeNs, t0)
	}
	return refineInto(na.sp, na.data, query, cands, k, &s.queue, dst, tr)
}
