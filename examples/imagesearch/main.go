// Imagesearch: head-to-head comparison of every method family on dense
// visual descriptors under L2 — a miniature of the paper's Figure 4a.
//
// Builds a VP-tree, multi-probe LSH, a Small-World graph, NAPP and the
// brute-force permutation filter over the same SIFT-like data, then reports
// recall and speed-up over a sequential scan for each.
//
//	go run ./examples/imagesearch
package main

import (
	"fmt"
	"log"
	"time"

	permsearch "repro"
	"repro/internal/dataset"
)

const (
	n       = 15000
	queries = 100
	k       = 10
)

func main() {
	data := dataset.SIFT(7, n+queries)
	db, qs := data[:n], data[n:]
	sp := permsearch.L2{}

	// Exact answers and the brute-force baseline time.
	scan := permsearch.NewSeqScan[[]float32](sp, db)
	truth := make([]map[uint32]bool, len(qs))
	start := time.Now()
	for i, q := range qs {
		truth[i] = map[uint32]bool{}
		for _, nb := range scan.Search(q, k) {
			truth[i][nb.ID] = true
		}
	}
	brutePerQuery := time.Since(start) / time.Duration(len(qs))
	fmt.Printf("sequential scan: %v per query (baseline)\n\n", brutePerQuery)
	fmt.Printf("%-22s %8s %10s %12s %10s\n", "method", "recall", "per-query", "speed-up", "build")

	report := func(name string, idx permsearch.Index[[]float32], build time.Duration) {
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
		perQuery := time.Since(start) / time.Duration(len(qs))
		fmt.Printf("%-22s %7.1f%% %10v %11.1fx %10v\n",
			name, 100*float64(hits)/float64(total), perQuery,
			float64(brutePerQuery)/float64(perQuery), build.Round(time.Millisecond))
	}

	start = time.Now()
	// Stretched pruning: approximate but fast.
	vt, err := permsearch.NewVPTree[[]float32](sp, db, permsearch.VPTreeOptions{AlphaLeft: 4, AlphaRight: 4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	report("vptree (alpha=4)", vt, time.Since(start))

	start = time.Now()
	mplsh, err := permsearch.NewMPLSH(db, permsearch.MPLSHOptions{Tables: 16, Hashes: 12, Probes: 10, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	report("mplsh (T=10)", mplsh, time.Since(start))

	start = time.Now()
	sw, err := permsearch.NewSWGraph[[]float32](sp, db, permsearch.GraphOptions{NN: 10, InitAttempts: 2, EfSearch: 40, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	report("sw-graph (ef=40)", sw, time.Since(start))

	start = time.Now()
	napp, err := permsearch.NewNAPP[[]float32](sp, db, permsearch.NAPPOptions{
		NumPivots: 512, NumPivotIndex: 16, MinShared: 2, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	report("napp (t=2)", napp, time.Since(start))

	start = time.Now()
	bf, err := permsearch.NewBruteForceFilter[[]float32](sp, db, permsearch.BruteForceOptions{
		NumPivots: 128, Gamma: 0.02, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	report("brute-force-filt", bf, time.Since(start))

	fmt.Println("\nExpected shape (paper, Figure 4a): the proximity graph wins,")
	fmt.Println("NAPP is the strongest permutation method, and the VP-tree and")
	fmt.Println("MPLSH sit in between; the plain permutation filter trails on a")
	fmt.Println("cheap distance like L2.")
}
