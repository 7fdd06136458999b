package core

import (
	"cmp"

	"repro/internal/index"
	"repro/internal/permutation"
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
		// ScanCount counts into scanPlanes = 8 bit planes; cap ms so
		// they cannot wrap.
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
// inverted file mapping each pivot to the data points that have it among
// their mi closest pivots. Queries merge the posting lists of the query's ms
// closest pivots with the ScanCount algorithm (Li et al.), keep candidates
// sharing at least t pivots, and refine with the true distance.
//
// Per the paper's §3.2 the index is not compressed, but a posting list is
// held as a bitmap over the ids rather than as the ids themselves: at the
// paper's mi/m = 32/512 a list is 6.25% dense, so the bitmap is half the
// size of its uint32 ids, and ScanCount becomes a bit-sliced addition of ms
// bitmaps that advances 64 counters per word-op and needs neither a counter
// array nor its per-query reset (napp_scan.go). Index files still store
// ascending ids.
//
// The index is immutable once built. §3.5's "deletion and addition of
// records can be easily implemented" is served by internal/lsm, which puts
// new objects in tiers beside the index and masks deleted ones.
type NAPP[T any] struct {
	data   []T
	pivots *permutation.Pivots[T]
	// bitmaps[p] has bit id set when point id posts to pivot p. A bitmap
	// may be shorter than ⌈N/64⌉ words and reads as zero past its end.
	bitmaps [][]uint64
	opts    NAPPOptions
	pipeline[T, nappScratch]
}

// nappScratch is the per-query state of one NAPP search.
type nappScratch struct {
	perm  permutation.Scratch
	cands []uint32
	// sel holds (candidate, negated shared-pivot count) pairs for the
	// MaxCandidates partial selection.
	sel []topk.Neighbor
}

// NewNAPP samples pivots and builds the inverted file (in parallel).
func NewNAPP[T any](sp space.Space[T], data []T, opts NAPPOptions) (*NAPP[T], error) {
	opts.defaults()
	pv, err := samplePivots(sp, data, &opts.NumPivots, opts.Seed)
	if err != nil {
		return nil, err
	}
	return NewNAPPWithPivots(sp, data, pv, opts)
}

// NewNAPPWithPivots builds the index over an explicit pivot set, bypassing
// random sampling. Tests use it to reproduce the paper's worked example.
func NewNAPPWithPivots[T any](sp space.Space[T], data []T, pv *permutation.Pivots[T], opts NAPPOptions) (*NAPP[T], error) {
	if len(data) == 0 {
		return nil, errEmpty
	}
	opts.NumPivots = pv.M()
	opts.defaults()
	mi := opts.NumPivotIndex
	orders := computeOrders(pv, data, mi)
	na := &NAPP[T]{data: data, pivots: pv, opts: opts, bitmaps: make([][]uint64, opts.NumPivots)}
	for p := range na.bitmaps {
		na.bitmaps[p] = make([]uint64, (len(data)+63)/64)
	}
	for i := 0; i < len(data); i++ {
		for _, p := range orders[i*mi : (i+1)*mi] {
			na.bitmaps[p][i>>6] |= 1 << (i & 63)
		}
	}
	na.bind(na, sp, na.data, 0)
	return na, nil
}

// Name implements index.Index.
func (na *NAPP[T]) Name() string { return "napp" }

func (na *NAPP[T]) size() (int64, int) {
	var words int64
	for _, b := range na.bitmaps {
		words += int64(len(b))
	}
	return words*8 + int64(len(na.bitmaps))*24, na.pivots.M()
}

// Options returns the effective (defaulted) parameters.
func (na *NAPP[T]) Options() NAPPOptions { return na.opts }

// filter keeps the ids sharing at least t of the query's ms closest
// pivots. NAPP has no gamma: the threshold alone sets the candidate count,
// up to MaxCandidates.
func (na *NAPP[T]) filter(s *nappScratch, query T, _ int, p index.Params) (candidates, int, int) {
	closest := na.pivots.ClosestWith(&s.perm, query, na.opts.NumPivotSearch)
	t := cmp.Or(p.MinShared, na.opts.MinShared)
	max := na.opts.MaxCandidates
	na.scan(s, closest, t, max > 0)
	cands := s.cands
	scanned := len(cands)
	if max > 0 && len(cands) > max {
		// Additional filtering for expensive distances: prefer
		// candidates sharing more pivots with the query, then smaller
		// ids for determinism — a partial selection over the scores the
		// scan read off its counter planes.
		cands = cands[:0]
		for _, c := range topk.SelectK(s.sel, max) {
			cands = append(cands, c.ID)
		}
	}
	return candidates{ids: cands}, scanned, s.perm.Measured
}
