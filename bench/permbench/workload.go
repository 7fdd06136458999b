package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

const (
	topK = 10 // every search asks for the 10 nearest neighbours

	// warmup is the untimed closed-loop load before a measured pass: it
	// fills connection pools, searcher pools and page cache.
	warmup = 1500 * time.Millisecond
	// reps is how many back-to-back segments the timed pass is made of; an
	// end-to-end value is the median over them.
	reps = 5
	// setups is how many times a timed run sets the system up from nothing;
	// setup_s is the median.
	setups = 3
)

// workload is one traffic mix against one topology. The corpus is fixed per
// workload (corpusSeed): the generators draw a new mixture shape for every
// seed, which moves per-query cost by ±20% and recall by ±0.03, so a
// per-run corpus would bury the regression bounds in input variance. The
// run's -seed picks the queries, their order, the ingest objects, the
// delete targets: everything the system receives.
type workload struct {
	name string
	why  string

	dataset    string // generator name, as the serving manifest spells it
	corpusSeed int64
	n          int // corpus size
	pool       int // held-out objects after the corpus; queries and adds are drawn from these
	q          int // queries per run
	t          int // NAPP MinShared, set as the manifest's serving default

	shards  int // 1: one permserve; >1: permrouter over that many shards
	clients int // closed-loop search clients
	batch   int // queries per search request
	tunedT  int // >0: every second request carries params {"t": tunedT}

	mutable    bool // serve through the WAL-backed LSM tree
	writeRate  int  // open-loop write ops per second
	flushEvery int  // POST /flush after this many write ops
}

// workloads is the benchmark. Sizes are set so that one run — three
// set-ups, exact truth, warm-up, 10 s of load, verification — ends in about
// half a minute on two cores; the recall operating points (t) sit on the
// steep part of each curve, near 0.95.
var workloads = []workload{
	{
		name:    "sift-fleet",
		why:     "router over 3 shards, single queries: fan-out, merge and two wire hops dominate, distance work is small",
		dataset: "sift", corpusSeed: 1, n: 40000, pool: 12288, q: 512, t: 22,
		shards: 3, clients: 2, batch: 1,
	},
	{
		name:    "sift-batch",
		why:     "one daemon, 64-query batches, half with per-request params: pool dispatch, filter and refine on a cheap distance dominate",
		dataset: "sift", corpusSeed: 1, n: 40000, pool: 12288, q: 512, t: 22,
		shards: 1, clients: 2, batch: 64, tunedT: 22,
	},
	{
		name:    "dna-direct",
		why:     "one daemon, single queries under normalised Levenshtein: distance calls dominate, wire and router do little",
		dataset: "dna", corpusSeed: 1, n: 4000, pool: 2048, q: 512, t: 8,
		shards: 1, clients: 2, batch: 1,
	},
	{
		name:    "sift-ingest",
		why:     "mutable index, open-loop adds/deletes/flushes beside one reader: WAL, memtable, tiers and compaction work only here",
		dataset: "sift", corpusSeed: 1, n: 40000, pool: 12288, q: 512, t: 22,
		shards: 1, clients: 1, batch: 1,
		mutable: true, writeRate: 200, flushEvery: 200,
	},
}

// pathScale converts a per-query stage time into its share of one request's
// critical path: a batch request spreads its queries over the daemon's
// worker pool, which is as wide as the machine.
func (w workload) pathScale() float64 {
	return float64(w.batch) / float64(min(w.batch, runtime.NumCPU()))
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// opKind is one step of the ingest schedule.
type opKind uint8

const (
	opAdd opKind = iota
	opDelete
	opFlush
)

// writeOp is one scheduled write. Deletes name their target up front: a
// base-corpus id, or the ordinal of an earlier add (whose id is known once
// the add is acknowledged — the single writer sends in order, so it is).
type writeOp struct {
	kind    opKind
	due     time.Duration // offset from the start of the pass
	add     int           // opAdd: ordinal into the run's add objects
	delBase int           // opDelete: base id, or -1
	delAdd  int           // opDelete: ordinal of the add to delete, or -1
}

// buildSchedule lays out the open-loop write schedule for a pass of the
// given length: rate ops/s, nine adds then one delete, deletes alternating
// between a base object and an object added earlier in the pass, and a flush
// right after every flushEvery-th op. It is a pure function of its
// arguments, so the tree goes through the same shapes on every commit.
func buildSchedule(w workload, seed int64, length time.Duration) []writeOp {
	r := rand.New(rand.NewSource(seed ^ 0x696e67657374)) // decorrelated from the query draw
	total := int(length.Seconds() * float64(w.writeRate))
	gap := time.Second / time.Duration(w.writeRate)
	var ops []writeOp
	adds, deletes := 0, 0
	deadBase := map[int]bool{}
	deadAdd := map[int]bool{}
	for i := 0; i < total; i++ {
		due := time.Duration(i) * gap
		switch {
		case i%10 != 9:
			ops = append(ops, writeOp{kind: opAdd, due: due, add: adds, delBase: -1, delAdd: -1})
			adds++
		case deletes%2 == 0:
			id := r.Intn(w.n)
			for deadBase[id] {
				id = r.Intn(w.n)
			}
			deadBase[id] = true
			ops = append(ops, writeOp{kind: opDelete, due: due, delBase: id, delAdd: -1})
			deletes++
		default:
			j := r.Intn(adds)
			for deadAdd[j] {
				j = r.Intn(adds)
			}
			deadAdd[j] = true
			ops = append(ops, writeOp{kind: opDelete, due: due, delBase: -1, delAdd: j})
			deletes++
		}
		if (i+1)%w.flushEvery == 0 {
			ops = append(ops, writeOp{kind: opFlush, due: due, delBase: -1, delAdd: -1})
		}
	}
	return ops
}
