// Command shardsplit is the offline partitioner of the sharded serving
// tier: it splits a synthetic corpus into S deterministic shard corpora,
// builds one index per shard, and writes everything a shard fleet needs to
// boot —
//
//	out/shard0/<set>.psix + <set>.json    (servable by: permserve -dir out/shard0)
//	out/shard1/...
//	out/<set>.shardset.json               (set manifest: partitioner, CRCs, generation)
//
// Each shard directory is a complete permserve index-set directory whose
// sidecar manifest carries the shard stamp, so the serving daemon carves
// the right corpus subset and answers with corpus-global ids; permrouter
// then merges per-shard answers into exactly what one unsharded index
// would return (see internal/router). With -shards 1 the output is an
// unsharded baseline over the full corpus — handy as the reference side of
// an A/B check (scripts/shard_smoke.sh does exactly that).
//
// Usage:
//
//	shardsplit -out idx/ -set dna -dataset dna -n 2000 -shards 2 -method vptree
//	shardsplit -out idx/ -set sift -dataset sift -n 5000 -shards 3 -method napp -partitioner round-robin
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	permsearch "repro"
	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/space"
)

func main() {
	out := flag.String("out", "", "output directory (required)")
	set := flag.String("set", "", "shard-set name; also the served index name (required)")
	ds := flag.String("dataset", "", "corpus generator: "+strings.Join(dataset.Names(), ", ")+", or any wiki-<topics> (required)")
	n := flag.Int("n", 5000, "full corpus size")
	seed := flag.Int64("seed", 42, "corpus + index construction seed")
	shards := flag.Int("shards", 2, "shard count S (1 writes an unsharded baseline)")
	partitioner := flag.String("partitioner", string(shard.Hash), "id->shard assignment: hash or round-robin")
	method := flag.String("method", "vptree", "index kind per shard: "+strings.Join(methodNames, ", "))
	generation := flag.Int64("generation", 1, "snapshot generation recorded in the manifests")
	flag.Parse()

	log.SetFlags(0)
	log.SetPrefix("shardsplit: ")
	if *out == "" || *set == "" || *ds == "" {
		fmt.Fprintln(os.Stderr, "shardsplit: -out, -set and -dataset are required")
		flag.Usage()
		os.Exit(2)
	}
	p, err := shard.ParsePartitioner(*partitioner)
	if err != nil {
		log.Fatal(err)
	}
	if *shards <= 0 || *n <= 0 {
		log.Fatalf("-shards and -n must be positive")
	}
	spec := spec{
		out: *out, set: *set, dataset: *ds, n: *n, seed: *seed,
		shards: *shards, partitioner: p, method: *method, generation: *generation,
	}
	if err := split(spec); err != nil {
		log.Fatal(err)
	}
}

// spec carries the validated flags.
type spec struct {
	out, set, dataset string
	n                 int
	seed              int64
	shards            int
	partitioner       shard.Partitioner
	method            string
	generation        int64
}

// split resolves the data set in the one table (internal/dataset) and does
// the work at its object type, under the family's first (the paper's)
// distance.
func split(sp spec) error {
	fam, err := dataset.Lookup(sp.dataset)
	if err != nil {
		return err
	}
	switch f := fam.(type) {
	case *dataset.Family[[]float32]:
		return splitTyped(sp, f)
	case *dataset.Family[[]byte]:
		return splitTyped(sp, f)
	case *dataset.Family[space.SparseVector]:
		return splitTyped(sp, f)
	case *dataset.Family[space.Histogram]:
		return splitTyped(sp, f)
	case *dataset.Family[space.Signature]:
		return splitTyped(sp, f)
	}
	return fmt.Errorf("dataset %q holds an object type shardsplit cannot index", sp.dataset)
}

// methodNames lists the per-shard index kinds shardsplit can build.
var methodNames = []string{"seqscan", "vptree", "napp", "sw-graph", "brute-force-filt", "brute-force-filt-bin", "mi-file", "pp-index", "omedrank", "perm-vptree"}

// buildMethod constructs one index kind over a shard corpus with the
// library defaults (tune offline with `repro methods`; pass query-time
// params at serving time via the sidecar manifest's "params").
func buildMethod[T any](method string, sp permsearch.Space[T], data []T, seed int64) (permsearch.Index[T], error) {
	switch method {
	case "seqscan":
		return permsearch.NewSeqScan(sp, data), nil
	case "vptree":
		return permsearch.NewVPTree(sp, data, permsearch.VPTreeOptions{Seed: seed})
	case "napp":
		return permsearch.NewNAPP(sp, data, permsearch.NAPPOptions{Seed: seed})
	case "sw-graph":
		return permsearch.NewSWGraph(sp, data, permsearch.GraphOptions{Seed: seed})
	case "brute-force-filt":
		return permsearch.NewBruteForceFilter(sp, data, permsearch.BruteForceOptions{Seed: seed})
	case "brute-force-filt-bin":
		return permsearch.NewBinFilter(sp, data, permsearch.BinFilterOptions{Seed: seed})
	case "mi-file":
		return permsearch.NewMIFile(sp, data, permsearch.MIFileOptions{Seed: seed})
	case "pp-index":
		return permsearch.NewPPIndex(sp, data, permsearch.PPIndexOptions{Seed: seed})
	case "omedrank":
		return permsearch.NewOMEDRANK(sp, data, permsearch.OMEDRANKOptions{Seed: seed})
	case "perm-vptree":
		return permsearch.NewPermVPTree(sp, data, permsearch.PermVPTreeOptions{Seed: seed})
	default:
		return nil, fmt.Errorf("unknown method %q (known: %s)", method, strings.Join(methodNames, ", "))
	}
}

// splitTyped does the work for one object type: partition, build a shard
// index per subset, write servable shard directories, then the set
// manifest.
func splitTyped[T any](sp spec, fam *dataset.Family[T]) error {
	data, dist := fam.Gen(sp.seed, sp.n), fam.Spaces()[0]
	ids, err := shard.IDs(sp.partitioner, len(data), sp.shards)
	if err != nil {
		return err
	}
	man := &shard.SetManifest{
		Set: sp.set, Dataset: sp.dataset, Seed: sp.seed, N: len(data),
		Partitioner: sp.partitioner, Generation: sp.generation,
	}
	for s := range ids {
		subset := shard.Subset(data, ids[s])
		idx, err := buildMethod(sp.method, dist, subset, sp.seed)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		if man.Kind == "" {
			man.Kind = idx.Name()
		}

		dir := filepath.Join(sp.out, fmt.Sprintf("shard%d", s))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		side := server.Manifest{Dataset: sp.dataset, Seed: sp.seed, N: len(data), Generation: sp.generation}
		if sp.shards > 1 {
			// S=1 stays unstamped: a true unsharded baseline.
			side.Shard = &shard.Info{Set: sp.set, Partitioner: sp.partitioner, Shards: sp.shards, Index: s}
		}
		file, sidePath, err := server.WriteIndex(dir, sp.set, idx, side)
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}

		crc, err := codec.FileChecksum(file)
		if err != nil {
			return err
		}
		rel := func(p string) string { r, _ := filepath.Rel(sp.out, p); return r }
		man.Shards = append(man.Shards, shard.SetShard{
			Index: s, File: rel(file), Manifest: rel(sidePath), N: len(subset), CRC32C: crc,
		})
		log.Printf("wrote %s (%s, %d of %d points, crc32c %08x)", file, sp.method, len(subset), len(data), crc)
	}
	path, err := shard.WriteSetManifest(sp.out, man)
	if err != nil {
		return err
	}
	log.Printf("wrote %s (set %q: %d shards, partitioner %s, generation %d)",
		path, sp.set, sp.shards, sp.partitioner, sp.generation)
	return nil
}
