// Package permsearch is the public facade of this repository: a Go
// implementation of the permutation-based approximate k-nearest-neighbor
// search methods surveyed in
//
//	Naidan, Boytsov, Nyberg.
//	"Permutation Search Methods are Efficient, Yet Faster Search is
//	Possible." PVLDB 8(12), 2015.
//
// and of every baseline the paper evaluates them against: sequential scan,
// multi-probe LSH, VP-trees with metric and polynomial pruning, and
// proximity graphs built with Small-World insertion or NN-descent.
//
// # Quick start
//
//	data := dataset // your []T
//	idx, err := permsearch.NewNAPP[[]float32](permsearch.L2{}, data, permsearch.NAPPOptions{})
//	if err != nil { ... }
//	neighbors := idx.Search(query, 10)
//
// Every index implements Index[T]: Search returns ids (positions into the
// data slice) with distances, nearest first. All filter-and-refine methods
// (brute-force filtering, PP-index, MI-file, NAPP, OMEDRANK, permutation
// VP-tree) take a gamma-style candidate budget; see the option structs.
//
// # Batch search
//
// For throughput-oriented workloads, SearchBatch fans a slab of queries out
// over a worker pool against any index:
//
//	results := permsearch.SearchBatch(idx, queries, 10)          // GOMAXPROCS workers
//	results := permsearch.SearchBatchWorkers(idx, queries, 10, 4) // bounded pool
//
// results[i] is always exactly what idx.Search(queries[i], 10) would have
// returned in a serial loop — parallelism never changes answers, only
// wall-clock time. The evaluation tools expose the same engine through
// their -workers flag (e.g. `repro methods`).
//
// # Persistence
//
// Every index can be saved to a versioned, checksummed binary file and
// loaded back ready to search, skipping construction (and all of its
// distance computations) entirely:
//
//	err := permsearch.SaveIndex(f, idx)
//	idx, err := permsearch.LoadIndex(f, permsearch.L2{}, data) // same space + data
//
// The format stores derived structure only — pivot ids, posting lists, tree
// nodes — never the data objects, so loading requires the same data slice
// the index was built over (verified via the header). A loaded index
// answers every query identically to the saved one. See internal/codec for
// the format and versioning policy.
//
// # Spaces
//
// A Space[T] is any (possibly non-metric) dissimilarity; implementations
// for the paper's seven distances ship in this package: L2, L1 (dense
// vectors), CosineDistance (sparse vectors), KLDivergence and JSDivergence
// (topic histograms), NormalizedLevenshtein (byte strings) and SQFD (image
// signatures). For non-symmetric distances the data point is always the
// left argument ("left queries", §3.3 of the paper).
package permsearch

import (
	"io"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/lsh"
	"repro/internal/permutation"
	"repro/internal/persist"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/topk"
	"repro/internal/vptree"
)

// Core result and interface types.
type (
	// Neighbor is one search answer: a data id and its distance.
	Neighbor = topk.Neighbor
	// Index is the interface satisfied by every search structure here.
	Index[T any] = index.Index[T]
	// SearchOptions is what one query carries besides the query object:
	// k, an optional context and stage trace, and SearchParams. Pass it to
	// Index.SearchAppend, which answers with zero steady-state allocations
	// when the caller recycles the result buffer.
	SearchOptions = index.Options
	// SearchParams are the query-time knobs (gamma, NAPP t, VP-tree alpha,
	// graph attempts/ef, MPLSH T) as per-query values; zero fields mean the
	// index's build-time setting.
	SearchParams = index.Params
	// Space is a (possibly non-metric) dissimilarity over T.
	Space[T any] = space.Space[T]
	// Properties reports which distance axioms a space satisfies.
	Properties = space.Properties
)

// Object types for the paper's non-vector spaces.
type (
	// SparseVector is a sorted sparse vector (cosine distance).
	SparseVector = space.SparseVector
	// Histogram is a probability histogram with precomputed logs
	// (KL/JS divergence).
	Histogram = space.Histogram
	// Signature is an SQFD image signature.
	Signature = space.Signature
)

// Distance functions (see package space for details).
type (
	// L2 is the Euclidean metric over dense vectors.
	L2 = space.L2
	// L1 is the Manhattan metric over dense vectors.
	L1 = space.L1
	// CosineDistance is 1 - cosine similarity over sparse vectors.
	CosineDistance = space.CosineDistance
	// KLDivergence is the (non-symmetric) Kullback-Leibler divergence.
	KLDivergence = space.KLDivergence
	// JSDivergence is the Jensen-Shannon divergence.
	JSDivergence = space.JSDivergence
	// NormalizedLevenshtein is edit distance over max length.
	NormalizedLevenshtein = space.NormalizedLevenshtein
	// SQFD is the Signature Quadratic Form Distance.
	SQFD = space.SQFD
)

// Pool is a bounded worker pool, the concurrency substrate shared by batch
// search and parallel index construction. The zero value runs at GOMAXPROCS.
type Pool = engine.Pool

// NewPool returns a pool of at most workers goroutines (<= 0: GOMAXPROCS).
func NewPool(workers int) Pool { return engine.NewPool(workers) }

// SearchBatch answers a batch of queries concurrently on a GOMAXPROCS-wide
// pool. results[i] is exactly what idx.Search(queries[i], k) would return
// in a serial loop; ordering is deterministic regardless of scheduling.
func SearchBatch[T any](idx Index[T], queries []T, k int) [][]Neighbor {
	return SearchBatchWorkers(idx, queries, k, 0)
}

// SearchBatchWorkers is SearchBatch on a pool bounded to workers goroutines
// (<= 0 means GOMAXPROCS).
func SearchBatchWorkers[T any](idx Index[T], queries []T, k, workers int) [][]Neighbor {
	// Without a context the batch cannot be cut short, so there is no error.
	out, _ := engine.SearchBatch(engine.NewPool(workers), idx, queries, index.Options{K: k})
	return out
}

// SaveIndex serializes any index built by this package to w in the
// versioned, checksummed binary format of internal/codec. An Index this
// package did not build cannot be persisted and returns an error.
func SaveIndex[T any](w io.Writer, idx Index[T]) error {
	return persist.Save(w, idx)
}

// LoadIndex reads one index from r and reconstructs it over sp and data,
// which must be the space and data set the index was saved with. The
// concrete index type is selected by the file's kind tag (see IndexKinds);
// the result is ready to Search.
func LoadIndex[T any](r io.Reader, sp Space[T], data []T) (Index[T], error) {
	return persist.Load(r, sp, data)
}

// SaveIndexFile is SaveIndex to a file path (created or truncated, fsynced).
func SaveIndexFile[T any](path string, idx Index[T]) error {
	return persist.SaveFile(path, idx)
}

// LoadIndexFile is LoadIndex from a file path.
func LoadIndexFile[T any](path string, sp Space[T], data []T) (Index[T], error) {
	return persist.LoadFile(path, sp, data)
}

// IndexHeader describes a persisted index file: its kind tag, the name of
// the space it was built under, the format version and the data-set size.
type IndexHeader = codec.Header

// ReadIndexHeader returns the header of the index file at path without
// reconstructing the index, so callers can decide which space and data to
// load it over (or list a directory's contents cheaply).
func ReadIndexHeader(path string) (IndexHeader, error) {
	return persist.PeekHeader(path)
}

// LoadIndexSet opens every index file (*.psix) in dir over one shared
// (space, data) pair, returning ready indexes keyed by file name without
// the extension — the warm-start path for serving processes that hold
// several index structures over the same corpus. Any file that fails to
// load or mismatches sp/data aborts the whole set.
func LoadIndexSet[T any](dir string, sp Space[T], data []T) (map[string]Index[T], error) {
	return persist.LoadIndexSet(dir, sp, data)
}

// IndexKinds lists the kind tags of every persistable index family, in the
// order of the internal registry.
func IndexKinds() []string { return codec.Kinds() }

// NewSparseVector validates and sorts a sparse vector.
func NewSparseVector(idx []int32, val []float32) (SparseVector, error) {
	return space.NewSparseVector(idx, val)
}

// NewHistogram floors, normalizes and log-precomputes a histogram.
func NewHistogram(p []float32) Histogram { return space.NewHistogram(p) }

// NewSignature validates and normalizes an SQFD signature.
func NewSignature(weights, centroids []float32, dim int) (Signature, error) {
	return space.NewSignature(weights, centroids, dim)
}

// Option structs of the permutation methods (package core).
type (
	// BruteForceOptions configures brute-force permutation filtering.
	BruteForceOptions = core.BruteForceOptions
	// BinFilterOptions configures binarized permutation filtering.
	BinFilterOptions = core.BinFilterOptions
	// QuantFilterOptions configures 4-bit quantized-prefix filtering.
	QuantFilterOptions = core.QuantFilterOptions
	// PPIndexOptions configures the Permutation Prefix Index.
	PPIndexOptions = core.PPIndexOptions
	// MIFileOptions configures the Metric Inverted File.
	MIFileOptions = core.MIFileOptions
	// NAPPOptions configures the Neighborhood APProximation index.
	NAPPOptions = core.NAPPOptions
	// OMEDRANKOptions configures Fagin et al.'s rank aggregation.
	OMEDRANKOptions = core.OMEDRANKOptions
	// PermVPTreeOptions configures VP-tree-indexed permutations.
	PermVPTreeOptions = core.PermVPTreeOptions
	// VPTreeOptions configures the VP-tree baseline.
	VPTreeOptions = vptree.Options
	// GraphOptions configures proximity-graph construction and search.
	GraphOptions = knngraph.Options
	// MPLSHOptions configures multi-probe LSH.
	MPLSHOptions = lsh.Options
)

// NewBruteForceFilter builds the §2.2 brute-force permutation filter.
func NewBruteForceFilter[T any](sp Space[T], data []T, opts BruteForceOptions) (*core.ScanFilter[T], error) {
	return core.NewBruteForceFilter(sp, data, opts)
}

// NewBinFilter builds the binarized (bit-packed, Hamming) filter.
func NewBinFilter[T any](sp Space[T], data []T, opts BinFilterOptions) (*core.ScanFilter[T], error) {
	return core.NewBinFilter(sp, data, opts)
}

// NewQuantFilter builds the 4-bit quantized permutation-prefix filter:
// nibble-packed rank signatures scanned with a SWAR Footrule kernel.
func NewQuantFilter[T any](sp Space[T], data []T, opts QuantFilterOptions) (*core.ScanFilter[T], error) {
	return core.NewQuantFilter(sp, data, opts)
}

// NewPPIndex builds Esuli's Permutation Prefix Index.
func NewPPIndex[T any](sp Space[T], data []T, opts PPIndexOptions) (*core.PPIndex[T], error) {
	return core.NewPPIndex(sp, data, opts)
}

// NewMIFile builds Amato & Savino's Metric Inverted File.
func NewMIFile[T any](sp Space[T], data []T, opts MIFileOptions) (*core.MIFile[T], error) {
	return core.NewMIFile(sp, data, opts)
}

// NewNAPP builds Tellez et al.'s Neighborhood APProximation index.
func NewNAPP[T any](sp Space[T], data []T, opts NAPPOptions) (*core.NAPP[T], error) {
	return core.NewNAPP(sp, data, opts)
}

// NewOMEDRANK builds Fagin et al.'s median-rank aggregation baseline.
func NewOMEDRANK[T any](sp Space[T], data []T, opts OMEDRANKOptions) (*core.OMEDRANK[T], error) {
	return core.NewOMEDRANK(sp, data, opts)
}

// NewPermVPTree indexes permutations in a VP-tree (Figueroa & Fredriksson).
func NewPermVPTree[T any](sp Space[T], data []T, opts PermVPTreeOptions) (*core.PermVPTree[T], error) {
	return core.NewPermVPTree(sp, data, opts)
}

// NewVPTree builds the VP-tree baseline (exact for metric spaces at
// alpha=1; polynomial pruner for generic spaces).
func NewVPTree[T any](sp Space[T], data []T, opts VPTreeOptions) (*vptree.Tree[T], error) {
	return vptree.New(sp, data, opts)
}

// TuneVPTree grid-searches the pruning stretch alpha for a recall target.
func TuneVPTree[T any](sp Space[T], sample, queries []T, k int, targetRecall float64, opts VPTreeOptions) (alpha, recall float64, err error) {
	return vptree.Tune(sp, sample, queries, k, targetRecall, opts)
}

// NewSWGraph builds a Small-World proximity graph (Malkov et al.).
func NewSWGraph[T any](sp Space[T], data []T, opts GraphOptions) (*knngraph.Graph[T], error) {
	return knngraph.NewSW(sp, data, opts)
}

// NewNNDescentGraph builds a k-NN graph with NN-descent (Dong et al.).
func NewNNDescentGraph[T any](sp Space[T], data []T, opts GraphOptions) (*knngraph.Graph[T], error) {
	return knngraph.NewNNDescent(sp, data, opts)
}

// NewMPLSH builds the multi-probe LSH baseline (dense vectors, L2 only).
func NewMPLSH(data [][]float32, opts MPLSHOptions) (*lsh.MPLSH, error) {
	return lsh.New(data, opts)
}

// NewSeqScan builds the exact sequential-scan baseline.
func NewSeqScan[T any](sp Space[T], data []T) *seqscan.Scanner[T] {
	return seqscan.New(sp, data)
}

// Pivots is the pivot set of a permutation index, as the Pivots method of
// the brute-force filters (NewBruteForceFilter, NewBinFilter,
// NewQuantFilter) returns it. M, Items, SourceIDs and Space describe the
// set; Distances, Order and Permutation compute a point's distances to the
// pivots, its pivot order and its permutation.
type Pivots[T any] = permutation.Pivots[T]
