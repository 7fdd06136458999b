package indextest

import (
	"repro/internal/dataset"
	"repro/internal/space"
)

// The shared test corpora: small, deterministic synthetic data sets of
// corpusSize indexed objects plus corpusQueries held-out queries, one per
// object family the repository's spaces cover, so every suite in this
// package runs on exactly the same data.
const (
	corpusSize    = 300
	corpusQueries = 12
	// kindSeed seeds the generators and the kind builders' sampling.
	kindSeed = 7
)

// denseCorpus returns the SIFT-like dense-vector corpus (L2) split into db
// and queries.
func denseCorpus() (db, queries [][]float32) {
	all := dataset.SIFT(kindSeed, corpusSize+corpusQueries)
	return all[:corpusSize], all[corpusSize:]
}

// dnaCorpus returns the byte-string corpus used under (normalized)
// Levenshtein distances.
func dnaCorpus() (db, queries [][]byte) {
	all := dataset.DNA(kindSeed, corpusSize+corpusQueries, dataset.DNAOptions{})
	return all[:corpusSize], all[corpusSize:]
}

// histoCorpus returns the topic-histogram corpus used under the asymmetric
// KL divergence (and JS).
func histoCorpus() (db, queries []space.Histogram) {
	all := dataset.WikiLDA(kindSeed, corpusSize+corpusQueries, 8)
	return all[:corpusSize], all[corpusSize:]
}
