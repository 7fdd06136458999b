package vptree

import (
	"fmt"

	"repro/internal/index"
	"repro/internal/seqscan"
	"repro/internal/space"
)

// Tune searches for the largest pruning stretch alpha (applied to both
// sides) that keeps k-NN recall at or above targetRecall on the given sample
// queries, mirroring the paper's grid-search-with-shrinking-step procedure
// (§3.2). The tree is built once on sample; only alpha varies. It returns
// the tuned alpha and the recall achieved at that alpha.
//
// The procedure doubles alpha while recall holds, then bisects between the
// last passing and first failing value. Larger alpha = more pruning =
// faster, so the returned alpha is the speed-optimal setting for the target.
func Tune[T any](sp space.Space[T], sample, queries []T, k int, targetRecall float64, opts Options) (alpha, recall float64, err error) {
	if len(sample) == 0 || len(queries) == 0 {
		return 0, 0, fmt.Errorf("vptree: Tune needs non-empty sample and queries")
	}
	if k <= 0 {
		return 0, 0, fmt.Errorf("vptree: Tune needs k > 0")
	}
	tree, err := New(sp, sample, opts)
	if err != nil {
		return 0, 0, err
	}
	truth := seqscan.New(sp, sample).SearchAll(queries, k)

	measure := func(a float64) float64 {
		opts := index.Options{K: k, Params: index.Params{AlphaLeft: a, AlphaRight: a}}
		var hit, total int
		for i, q := range queries {
			want := map[uint32]bool{}
			for _, n := range truth[i] {
				want[n.ID] = true
			}
			for _, n := range tree.SearchAppend(nil, q, opts) {
				if want[n.ID] {
					hit++
				}
			}
			total += len(truth[i])
		}
		if total == 0 {
			return 0
		}
		return float64(hit) / float64(total)
	}

	lo := 1.0
	rec := measure(lo)
	if rec < targetRecall {
		// Even exact-style pruning misses the target (non-metric
		// space); shrink alpha below 1 to prune less.
		for lo > 1.0/1024 {
			next := lo / 2
			if rec = measure(next); rec >= targetRecall {
				lo = next
				break
			}
			lo = next
		}
		return lo, rec, nil
	}
	// Double until recall drops.
	hi := lo
	for i := 0; i < 20; i++ {
		cand := hi * 2
		if r := measure(cand); r >= targetRecall {
			hi = cand
			lo = cand
			rec = r
			continue
		}
		hi = cand
		break
	}
	if hi == lo {
		return lo, rec, nil
	}
	// Bisect (lo passes, hi fails).
	for i := 0; i < 12; i++ {
		mid := (lo + hi) / 2
		if r := measure(mid); r >= targetRecall {
			lo, rec = mid, r
		} else {
			hi = mid
		}
	}
	return lo, rec, nil
}
