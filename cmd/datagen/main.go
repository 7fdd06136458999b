// Command datagen generates the synthetic data sets and prints summary
// statistics (and optionally a few sample records), so the substitution
// generators behind Table 1 can be inspected directly.
//
// Usage:
//
//	datagen -dataset dna -n 1000 [-samples 3] [-seed 1]
//	datagen -list
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/space"
)

func main() {
	name := flag.String("dataset", "", "data set name (required unless -list)")
	n := flag.Int("n", 1000, "records to generate")
	samples := flag.Int("samples", 0, "print this many sample records")
	seed := flag.Int64("seed", 1, "random seed")
	list := flag.Bool("list", false, "list generators, then exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(dataset.Names(), "\n"))
		return
	}

	fam, err := dataset.Lookup(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: %v (known: %s, or any wiki-<topics>)\n",
			err, strings.Join(dataset.Names(), ", "))
		os.Exit(2)
	}
	// One summary per object type; the table in internal/dataset decides
	// which data set holds which.
	switch f := fam.(type) {
	case *dataset.Family[[]float32]:
		summarizeDense(f.Gen(*seed, *n), *samples)
	case *dataset.Family[space.Signature]:
		sigs := f.Gen(*seed, *n)
		var clusters int
		for _, s := range sigs {
			clusters += s.Clusters()
		}
		fmt.Printf("records=%d avg-clusters=%.1f dim=%d\n",
			len(sigs), float64(clusters)/float64(len(sigs)), sigs[0].Dim)
		for i := 0; i < *samples && i < len(sigs); i++ {
			fmt.Printf("sample %d: %d clusters, weights %v\n", i, sigs[i].Clusters(), sigs[i].Weights)
		}
	case *dataset.Family[space.SparseVector]:
		docs := f.Gen(*seed, *n)
		var nnz int
		for _, d := range docs {
			nnz += d.NNZ()
		}
		fmt.Printf("records=%d avg-nnz=%.1f vocab=%s\n", len(docs), float64(nnz)/float64(len(docs)), f.Dims())
		for i := 0; i < *samples && i < len(docs); i++ {
			fmt.Printf("sample %d: %d terms, norm %.3f\n", i, docs[i].NNZ(), docs[i].Norm)
		}
	case *dataset.Family[space.Histogram]:
		docs := f.Gen(*seed, *n)
		fmt.Printf("records=%d topics=%s\n", len(docs), f.Dims())
		for i := 0; i < *samples && i < len(docs); i++ {
			fmt.Printf("sample %d: %v\n", i, docs[i].P[:min(8, len(docs[i].P))])
		}
	case *dataset.Family[[]byte]:
		seqs := f.Gen(*seed, *n)
		lens := make([]int, len(seqs))
		total := 0
		for i, s := range seqs {
			lens[i] = len(s)
			total += len(s)
		}
		sort.Ints(lens)
		fmt.Printf("records=%d mean-len=%.1f median-len=%d\n",
			len(seqs), float64(total)/float64(len(seqs)), lens[len(lens)/2])
		for i := 0; i < *samples && i < len(seqs); i++ {
			fmt.Printf("sample %d: %s\n", i, seqs[i])
		}
	}
}

func summarizeDense(vs [][]float32, samples int) {
	lo, hi := vs[0][0], vs[0][0]
	for _, v := range vs {
		for _, x := range v {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
	}
	fmt.Printf("records=%d dim=%d value-range=[%.1f, %.1f]\n", len(vs), len(vs[0]), lo, hi)
	for i := 0; i < samples && i < len(vs); i++ {
		fmt.Printf("sample %d: %v...\n", i, vs[i][:min(8, len(vs[i]))])
	}
}
