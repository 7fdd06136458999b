package core

import (
	"sort"

	"repro/internal/index"
	"repro/internal/permutation"
	"repro/internal/scratch"
	"repro/internal/space"
	"repro/internal/topk"
)

// MIFileOptions configures NewMIFile.
type MIFileOptions struct {
	// NumPivots is the total pivot count m. Default 128.
	NumPivots int
	// NumPivotIndex (mi) is how many closest pivots each point posts
	// to. Default 32.
	NumPivotIndex int
	// NumPivotSearch (ms <= mi) is how many of the query's closest
	// pivots are used at search time. Default 16.
	NumPivotSearch int
	// MaxPosDiff (D) skips postings whose pivot position differs from
	// the query's by more than D. Posting lists are sorted by position,
	// so the valid range is located by binary search (§2.3). 0 disables
	// the optimization.
	MaxPosDiff int
	// Gamma is the candidate fraction selected by estimated Footrule.
	// Default 0.02.
	Gamma float64
	// Seed drives pivot sampling.
	Seed int64
}

func (o *MIFileOptions) defaults() {
	if o.NumPivots <= 0 {
		o.NumPivots = 128
	}
	if o.NumPivotIndex <= 0 {
		o.NumPivotIndex = 32
	}
	if o.NumPivotIndex > o.NumPivots {
		o.NumPivotIndex = o.NumPivots
	}
	if o.NumPivotSearch <= 0 {
		o.NumPivotSearch = 16
	}
	if o.NumPivotSearch > o.NumPivotIndex {
		o.NumPivotSearch = o.NumPivotIndex
	}
	if o.Gamma <= 0 {
		o.Gamma = 0.02
	}
}

// miPosting is one entry of a positional posting list: the position of the
// pivot in the permutation induced by the data point, and the point id.
type miPosting struct {
	pos int32
	id  uint32
}

// MIFile is the Metric Inverted File of Amato & Savino (§2.3): each data
// point posts its mi closest pivots together with their permutation
// positions; postings of one pivot are sorted by position. A query reads the
// posting lists of its ms closest pivots and accumulates a lower-bound
// estimate of the Footrule distance on truncated permutations; the gamma
// best candidates are refined with the true distance.
//
// Scoring follows the paper exactly: accumulators start at ms*m and each
// posting (pos(pi, x), x) subtracts m - |pos(pi, x) - pos(pi, q)|, so points
// never encountered keep the pessimistic maximum.
type MIFile[T any] struct {
	data     []T
	pivots   *permutation.Pivots[T]
	postings [][]miPosting
	opts     MIFileOptions
	pipeline[T, miScratch]
}

// miScratch is the per-query state of one MI-file search.
type miScratch struct {
	perm    permutation.Scratch
	gains   scratch.Gains
	touched []uint32
	cands   []topk.Neighbor
}

// NewMIFile samples pivots and builds the positional inverted file.
func NewMIFile[T any](sp space.Space[T], data []T, opts MIFileOptions) (*MIFile[T], error) {
	opts.defaults()
	pv, err := samplePivots(sp, data, &opts.NumPivots, opts.Seed)
	if err != nil {
		return nil, err
	}
	return NewMIFileWithPivots(sp, data, pv, opts)
}

// NewMIFileWithPivots builds the index over an explicit pivot set, bypassing
// random sampling. Tests use it to reproduce the paper's worked example.
func NewMIFileWithPivots[T any](sp space.Space[T], data []T, pv *permutation.Pivots[T], opts MIFileOptions) (*MIFile[T], error) {
	if len(data) == 0 {
		return nil, errEmpty
	}
	opts.NumPivots = pv.M()
	opts.defaults()
	mi := opts.NumPivotIndex
	orders := computeOrders(pv, data, mi)
	postings := make([][]miPosting, opts.NumPivots)
	for i := 0; i < len(data); i++ {
		for pos, p := range orders[i*mi : (i+1)*mi] {
			postings[p] = append(postings[p], miPosting{pos: int32(pos), id: uint32(i)})
		}
	}
	for _, list := range postings {
		sort.Slice(list, func(a, b int) bool {
			if list[a].pos != list[b].pos {
				return list[a].pos < list[b].pos
			}
			return list[a].id < list[b].id
		})
	}
	mf := &MIFile[T]{data: data, pivots: pv, postings: postings, opts: opts}
	mf.bind(mf, sp, mf.data, opts.Gamma)
	return mf, nil
}

// Name implements index.Index.
func (mf *MIFile[T]) Name() string { return "mi-file" }

func (mf *MIFile[T]) size() (int64, int) {
	var cells int64
	for _, p := range mf.postings {
		cells += int64(len(p))
	}
	return cells*8 + int64(len(mf.postings))*24, mf.pivots.M()
}

// Options returns the effective (defaulted) parameters.
func (mf *MIFile[T]) Options() MIFileOptions { return mf.opts }

// filter scores every point met in the posting lists of the query's ms
// closest pivots.
func (mf *MIFile[T]) filter(s *miScratch, query T, _ int, _ index.Params) (candidates, int, int) {
	m := int32(mf.opts.NumPivots)
	ms := mf.opts.NumPivotSearch
	qorder := mf.pivots.ClosestWith(&s.perm, query, ms)

	// gains accumulates m - |pos_x - pos_q| per shared pivot; the
	// estimated Footrule on truncated permutations is ms*m - gain, so
	// ranking by descending gain equals ranking by ascending estimate.
	// The arena's epoch bump replaces the former per-query O(N) zeroing.
	s.gains.Begin(len(mf.data))
	touched := s.touched[:0]
	for qpos := 0; qpos < ms; qpos++ {
		p := qorder[qpos]
		list := mf.postings[p]
		lo, hi := 0, len(list)
		if d := mf.opts.MaxPosDiff; d > 0 {
			// Binary search the sorted-by-position list for the
			// window |pos - qpos| <= D.
			lo = sort.Search(len(list), func(i int) bool { return list[i].pos >= int32(qpos-d) })
			hi = sort.Search(len(list), func(i int) bool { return list[i].pos > int32(qpos+d) })
		}
		for _, pe := range list[lo:hi] {
			diff := pe.pos - int32(qpos)
			if diff < 0 {
				diff = -diff
			}
			if _, first := s.gains.Add(pe.id, m-diff); first {
				touched = append(touched, pe.id)
			}
		}
	}
	s.touched = touched

	cands := s.cands[:0]
	for _, id := range touched {
		// Estimated footrule: smaller is better.
		cands = append(cands, topk.Neighbor{ID: id, Dist: float64(int32(ms)*m - s.gains.Get(id))})
	}
	s.cands = cands
	return candidates{scored: cands}, len(cands), s.perm.Measured
}
