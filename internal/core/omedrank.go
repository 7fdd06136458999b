package core

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/permutation"
	"repro/internal/scratch"
	"repro/internal/space"
)

// OMEDRANKOptions configures NewOMEDRANK.
type OMEDRANKOptions struct {
	// NumVoters is the number of voting pivots h, at most maxVoters.
	// Fagin et al. use few voters (each ranking all points); default 8.
	NumVoters int
	// Quorum is the fraction of voter lists a candidate must appear in
	// before it is emitted (MEDRANK outputs on a majority). Default 0.5.
	Quorum float64
	// Gamma is the candidate fraction: the aggregation loop stops once
	// gamma*n candidates have crossed the quorum. Default 0.01.
	Gamma float64
	// Seed drives voter sampling.
	Seed int64
}

func (o *OMEDRANKOptions) defaults() {
	if o.NumVoters <= 0 {
		o.NumVoters = 8
	}
	if o.Quorum <= 0 || o.Quorum > 1 {
		o.Quorum = 0.5
	}
	if o.Gamma <= 0 {
		o.Gamma = 0.01
	}
}

// maxVoters is the largest voter count: an id is counted at most once per
// voter, so its quorum count stays <= h and fits the byte-packed
// scratch.Counters arena. Each voter also keeps a sorted copy of the corpus,
// 12 bytes a point.
const maxVoters = 255

// omedVoter is one voting pivot: every data point sorted by distance from
// the pivot.
type omedVoter struct {
	dists []float64 // ascending
	ids   []uint32  // co-sorted with dists
}

// OMEDRANK is the rank-aggregation method of Fagin, Kumar & Sivakumar
// (§2.1): each voting pivot ranks all data points by their distance from the
// pivot; at query time the algorithm walks every voter's list outward from
// the query's own position and outputs points as soon as they have been seen
// in a quorum of lists (the "median rank" heuristic for the NP-hard optimal
// aggregation). The paper benchmarks it as a baseline and finds NAPP more
// efficient; this implementation refines the aggregated candidates with the
// true distance so recall is comparable across methods.
type OMEDRANK[T any] struct {
	data   []T
	pivots *permutation.Pivots[T] // the voters, one per list
	voters []omedVoter
	opts   OMEDRANKOptions
	pipeline[T, omedScratch]
}

// omedScratch is the per-query state of one OMEDRANK search. Quorum counts
// live in the byte-packed Counters arena, exact because h <= maxVoters.
type omedScratch struct {
	counts scratch.Counters
	lo     []int
	hi     []int
	perm   permutation.Scratch // the query's voter distances
	cands  []uint32
}

// NewOMEDRANK samples voters and sorts the data by distance from each.
func NewOMEDRANK[T any](sp space.Space[T], data []T, opts OMEDRANKOptions) (*OMEDRANK[T], error) {
	opts.defaults()
	if opts.NumVoters > maxVoters {
		return nil, fmt.Errorf("core: omedrank takes at most %d voters, got %d", maxVoters, opts.NumVoters)
	}
	pv, err := samplePivots(sp, data, &opts.NumVoters, opts.Seed)
	if err != nil {
		return nil, err
	}
	om := &OMEDRANK[T]{data: data, pivots: pv, opts: opts}
	om.bind(om, sp, om.data, opts.Gamma)
	om.voters = make([]omedVoter, opts.NumVoters)
	engine.Pool{}.For(opts.NumVoters, func(_, v int) {
		voter := omedVoter{
			dists: make([]float64, len(data)),
			ids:   make([]uint32, len(data)),
		}
		pivot := pv.Items()[v]
		for i, x := range data {
			voter.dists[i] = sp.Distance(x, pivot)
			voter.ids[i] = uint32(i)
		}
		sort.Sort(&voterSort{voter})
		om.voters[v] = voter
	})
	return om, nil
}

// voterSort co-sorts a voter's parallel arrays by (distance, id).
type voterSort struct{ v omedVoter }

func (s *voterSort) Len() int { return len(s.v.ids) }
func (s *voterSort) Less(i, j int) bool {
	if s.v.dists[i] != s.v.dists[j] {
		return s.v.dists[i] < s.v.dists[j]
	}
	return s.v.ids[i] < s.v.ids[j]
}
func (s *voterSort) Swap(i, j int) {
	s.v.dists[i], s.v.dists[j] = s.v.dists[j], s.v.dists[i]
	s.v.ids[i], s.v.ids[j] = s.v.ids[j], s.v.ids[i]
}

// Name implements index.Index.
func (om *OMEDRANK[T]) Name() string { return "omedrank" }

func (om *OMEDRANK[T]) size() (int64, int) {
	return int64(len(om.voters)) * int64(len(om.data)) * 12, len(om.voters)
}

// filter walks the voters' lists outward from the query's positions until g
// ids have crossed the quorum.
func (om *OMEDRANK[T]) filter(s *omedScratch, query T, g int, _ index.Params) (candidates, int, int) {
	n := len(om.data)
	h := len(om.voters)
	need := int(om.opts.Quorum*float64(h)) + 1
	if need > h {
		need = h
	}

	// Two cursors per voter, starting at the query's position in the
	// voter's sorted order and moving outward.
	lo := scratch.Grow(s.lo, h)
	hi := scratch.Grow(s.hi, h)
	s.lo, s.hi = lo, hi
	qdist := om.pivots.DistancesWith(&s.perm, query)
	for v, voter := range om.voters {
		pos := sort.SearchFloat64s(voter.dists, qdist[v])
		lo[v], hi[v] = pos-1, pos
	}
	s.counts.Begin(n)
	cands := s.cands[:0]
	for len(cands) < g {
		progressed := false
		for v := range om.voters {
			voter := &om.voters[v]
			// Advance one step in the direction whose next entry
			// is closer in distance to the query's position.
			var pick int
			switch {
			case lo[v] < 0 && hi[v] >= n:
				continue
			case lo[v] < 0:
				pick = hi[v]
				hi[v]++
			case hi[v] >= n:
				pick = lo[v]
				lo[v]--
			default:
				// Both directions available: take the entry
				// whose pivot distance is nearer the query's.
				qd := qdist[v]
				if qd-voter.dists[lo[v]] <= voter.dists[hi[v]]-qd {
					pick = lo[v]
					lo[v]--
				} else {
					pick = hi[v]
					hi[v]++
				}
			}
			progressed = true
			id := voter.ids[pick]
			if int(s.counts.Inc(id)) == need {
				cands = append(cands, id)
				if len(cands) >= g {
					break
				}
			}
		}
		if !progressed {
			break
		}
	}
	s.cands = cands
	return candidates{ids: cands}, len(cands), h
}
