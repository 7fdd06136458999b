// Dnasearch: approximate nearest-neighbor search over DNA reads under the
// normalized Levenshtein distance, the paper's Figure 4f scenario where
// brute-force filtering of *binarized* permutations wins: the distance is
// expensive (dynamic programming) while 256-bit sketches compare with a
// handful of XOR+popcount instructions.
//
//	go run ./examples/dnasearch
package main

import (
	"fmt"
	"log"
	"time"

	permsearch "repro"
	"repro/internal/dataset"
)

const (
	n       = 8000
	queries = 50
	k       = 10
)

func main() {
	reads := dataset.DNA(21, n+queries, dataset.DNAOptions{})
	db, qs := reads[:n], reads[n:]
	sp := permsearch.NormalizedLevenshtein{}

	scan := permsearch.NewSeqScan[[]byte](sp, db)
	start := time.Now()
	truth := make([]map[uint32]bool, len(qs))
	for i, q := range qs {
		truth[i] = map[uint32]bool{}
		for _, nb := range scan.Search(q, k) {
			truth[i][nb.ID] = true
		}
	}
	brute := time.Since(start) / time.Duration(len(qs))
	fmt.Printf("exact scan: %v per query over %d reads\n\n", brute, n)

	measure := func(name string, idx permsearch.Index[[]byte], build time.Duration) {
		start := time.Now()
		var hits, total int
		for i, q := range qs {
			for _, nb := range idx.Search(q, k) {
				if truth[i][nb.ID] {
					hits++
				}
			}
			total += k
		}
		per := time.Since(start) / time.Duration(len(qs))
		fmt.Printf("%-28s recall %5.1f%%  %9v/query  %6.1fx  build %v\n",
			name, 100*float64(hits)/float64(total), per,
			float64(brute)/float64(per), build.Round(time.Millisecond))
	}

	// Binarized permutation filter: 256 pivots packed into 4 words.
	start = time.Now()
	bin, err := permsearch.NewBinFilter[[]byte](sp, db, permsearch.BinFilterOptions{
		NumPivots: 256, Gamma: 0.03, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	measure("brute-force-filt-bin", bin, time.Since(start))

	// Full permutations at the same budget, for contrast.
	start = time.Now()
	bf, err := permsearch.NewBruteForceFilter[[]byte](sp, db, permsearch.BruteForceOptions{
		NumPivots: 128, Gamma: 0.03, Seed: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	measure("brute-force-filt", bf, time.Since(start))

	// VP-tree with generic-space pruning.
	start = time.Now()
	vt, err := permsearch.NewVPTree[[]byte](sp, db, permsearch.VPTreeOptions{AlphaLeft: 2, AlphaRight: 2, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	measure("vptree (alpha=2)", vt, time.Since(start))

	// Show one query end to end.
	q := qs[0]
	fmt.Printf("\nquery read: %s\n", q)
	for i, nb := range bin.Search(q, 3) {
		fmt.Printf("  %d. %-40s dist=%.3f\n", i+1, db[nb.ID], nb.Dist)
	}
}
