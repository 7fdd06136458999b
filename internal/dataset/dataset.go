// Package dataset generates the synthetic stand-ins for the paper's nine
// data set / distance combinations (Table 1). The original corpora (CoPhIR,
// TEXMEX SIFT, ImageNet LSVRC-2014, Wikipedia dumps processed with GENSIM,
// the human genome) are proprietary or impractically large; each generator
// here preserves the property its experiments exercise — dimensionality,
// sparsity, cluster structure, and the relative cost of the distance
// function. The experiments compare methods against each other and against
// brute force on the same corpus, so a stand-in that keeps those properties
// keeps the comparison, while its absolute numbers are not the paper's.
//
// All generators are deterministic functions of (seed, n).
//
// family.go holds the one data-set table of the repository: Lookup maps a
// data-set name to its Family — generator with its option defaults, admitted
// distances, and the JSON codec of one object. The serving daemon, the
// offline partitioner, the rollout gate, the experiment registry and datagen
// all resolve names there; none of them names a generator itself.
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/space"
	"repro/internal/synth"
)

// CoPhIR generates n MPEG7-descriptor-like vectors: 282 dimensions, values
// in [0, 255], drawn from an anisotropic Gaussian mixture. Compared with L2
// (and, normalized, with L1 for the Chávez et al. cross-check).
func CoPhIR(seed int64, n int) [][]float32 {
	r := rand.New(rand.NewSource(seed))
	g := synth.NewGaussianMixture(r, 282, 32, 255, 28).Clamp(0, 255)
	return g.SampleN(r, n)
}

// SIFT generates n SIFT-like local descriptors: 128 dimensions, values in
// [0, 255], Gaussian mixture with more, tighter clusters than CoPhIR
// (gradient histograms concentrate strongly).
func SIFT(seed int64, n int) [][]float32 {
	r := rand.New(rand.NewSource(seed))
	g := synth.NewGaussianMixture(r, 128, 64, 255, 20).Clamp(0, 255)
	return g.SampleN(r, n)
}

// SignatureOptions tunes the ImageNet signature pipeline. Zero values pick
// paper-faithful defaults scaled to this reproduction's hardware budget.
type SignatureOptions struct {
	// Classes is the number of latent image classes (prototype blob sets).
	Classes int
	// Blobs is the number of latent feature blobs per image.
	Blobs int
	// Pixels is the number of pixel features sampled per image. The
	// paper samples 10^4; the default here is 300, which preserves the
	// k-means pipeline while fitting the time budget.
	Pixels int
	// Clusters is the k of the per-image k-means; the paper uses 20.
	Clusters int
	// KMeansIters caps Lloyd iterations per image.
	KMeansIters int
}

func (o *SignatureOptions) defaults() {
	if o.Classes <= 0 {
		o.Classes = 50
	}
	if o.Blobs <= 0 {
		o.Blobs = 5
	}
	if o.Pixels <= 0 {
		o.Pixels = 300
	}
	if o.Clusters <= 0 {
		o.Clusters = 20
	}
	if o.KMeansIters <= 0 {
		o.KMeansIters = 8
	}
}

// signatureDim is the pixel-feature dimensionality: three color, two
// position, and two texture dimensions, as in Beecks' extraction.
const signatureDim = 7

// ImageNet generates n SQFD image signatures by reproducing the paper's
// construction pipeline: each synthetic image is a mixture of latent
// 7-dimensional feature blobs; Pixels features are sampled and clustered
// with k-means into Clusters clusters; each cluster becomes a signature
// entry (centroid, weight = cluster fraction). Images of the same latent
// class share perturbed blob prototypes, giving the class structure k-NN
// search needs.
func ImageNet(seed int64, n int, opts SignatureOptions) []space.Signature {
	opts.defaults()
	r := rand.New(rand.NewSource(seed))

	// Class prototypes: Blobs blob centers in [0,1]^7 per class.
	protos := make([][][]float32, opts.Classes)
	for c := range protos {
		blobs := make([][]float32, opts.Blobs)
		for b := range blobs {
			v := make([]float32, signatureDim)
			for d := range v {
				v[d] = float32(r.Float64())
			}
			blobs[b] = v
		}
		protos[c] = blobs
	}

	sigs := make([]space.Signature, n)
	pixels := make([]float32, opts.Pixels*signatureDim)
	for i := 0; i < n; i++ {
		class := r.Intn(opts.Classes)
		// Perturb the class blobs for this particular image.
		blobs := make([][]float32, opts.Blobs)
		for b, proto := range protos[class] {
			v := make([]float32, signatureDim)
			for d := range v {
				v[d] = proto[d] + float32(r.NormFloat64()*0.05)
			}
			blobs[b] = v
		}
		// Sample pixel features around the blobs.
		for p := 0; p < opts.Pixels; p++ {
			blob := blobs[r.Intn(opts.Blobs)]
			for d := 0; d < signatureDim; d++ {
				pixels[p*signatureDim+d] = blob[d] + float32(r.NormFloat64()*0.08)
			}
		}
		res, err := cluster.KMeans(r, pixels, signatureDim, opts.Clusters, opts.KMeansIters)
		if err != nil {
			panic(fmt.Sprintf("dataset: k-means on synthetic image: %v", err))
		}
		weights := make([]float32, res.K())
		for c, sz := range res.Sizes {
			weights[c] = float32(sz) / float32(opts.Pixels)
		}
		sig, err := space.NewSignature(weights, res.Centroids, signatureDim)
		if err != nil {
			panic(fmt.Sprintf("dataset: signature: %v", err))
		}
		sigs[i] = sig
	}
	return sigs
}

// WikiSparseOptions tunes the sparse TF-IDF generator.
type WikiSparseOptions struct {
	Vocab  int // vocabulary size; paper: 10^5
	Topics int // latent topics
	Tokens int // word tokens per document (-> ~150 distinct terms)
}

func (o *WikiSparseOptions) defaults() {
	if o.Vocab <= 0 {
		o.Vocab = 100000
	}
	if o.Topics <= 0 {
		o.Topics = 40
	}
	if o.Tokens <= 0 {
		o.Tokens = 220
	}
}

// WikiSparse generates n sparse TF-IDF document vectors over a Zipfian
// vocabulary: each document mixes 1-3 latent topics, draws Tokens word
// tokens from per-topic Zipf distributions, and is weighted by a smooth IDF
// over the global word rank. The result averages ~150 non-zero entries over
// a 10^5-term vocabulary, matching Table 1.
func WikiSparse(seed int64, n int, opts WikiSparseOptions) []space.SparseVector {
	opts.defaults()
	r := rand.New(rand.NewSource(seed))
	zipf := synth.NewZipf(r, 1.25, uint64(opts.Vocab))

	// Per-topic vocabulary permutation: the same Zipf rank maps to
	// different words in different topics, so topics occupy different
	// subspaces. Storing full permutations costs Topics*Vocab int32.
	topicPerm := make([][]int32, opts.Topics)
	for t := range topicPerm {
		p := r.Perm(opts.Vocab)
		tp := make([]int32, opts.Vocab)
		for i, v := range p {
			tp[i] = int32(v)
		}
		topicPerm[t] = tp
	}

	docs := make([]space.SparseVector, n)
	counts := map[int32]int{}
	for i := 0; i < n; i++ {
		clear(counts)
		// 1-3 topics with random mixture proportions.
		nt := 1 + r.Intn(3)
		tops := make([]int, nt)
		for j := range tops {
			tops[j] = r.Intn(opts.Topics)
		}
		for tok := 0; tok < opts.Tokens; tok++ {
			t := tops[r.Intn(nt)]
			word := topicPerm[t][zipf.Sample()]
			counts[word]++
		}
		idx := make([]int32, 0, len(counts))
		val := make([]float32, 0, len(counts))
		for w, c := range counts {
			idx = append(idx, w)
			// log-scaled TF x smooth IDF by global word "rank"
			// (rank unknown post-permutation; we use the word id
			// as a proxy since ids are assigned uniformly).
			tf := 1 + math.Log(float64(c))
			idf := math.Log(2 + float64(opts.Vocab)/(2+float64(w)))
			val = append(val, float32(tf*idf))
		}
		sv, err := space.NewSparseVector(idx, val)
		if err != nil {
			panic(fmt.Sprintf("dataset: sparse vector: %v", err))
		}
		docs[i] = sv
	}
	return docs
}

// WikiLDA generates n LDA-like topic histograms over the given number of
// topics (8 or 128 in the paper). Documents cluster around 1-2 dominant
// topics (boosted Dirichlet concentration); zeros are floored at 1e-5 by
// space.NewHistogram exactly as the paper's preprocessing does.
func WikiLDA(seed int64, n, topics int) []space.Histogram {
	if topics <= 1 {
		panic("dataset: topics must be > 1")
	}
	r := rand.New(rand.NewSource(seed))
	alpha := make([]float64, topics)
	docs := make([]space.Histogram, n)
	for i := 0; i < n; i++ {
		for t := range alpha {
			alpha[t] = 0.08
		}
		// One or two dominant topics.
		alpha[r.Intn(topics)] += 4
		if r.Float64() < 0.5 {
			alpha[r.Intn(topics)] += 2
		}
		docs[i] = space.NewHistogram(synth.Dirichlet(r, alpha))
	}
	return docs
}

// DNAOptions tunes the DNA substring sampler.
type DNAOptions struct {
	GenomeLen int     // synthetic chromosome length; default max(1e6, 64*n)
	MeanLen   float64 // substring mean length; paper: 32
	SDLen     float64 // substring length std dev; paper: 4
}

func (o *DNAOptions) defaults(n int) {
	if o.GenomeLen <= 0 {
		o.GenomeLen = 1 << 20
		if want := 64 * n; want > o.GenomeLen {
			o.GenomeLen = want
		}
	}
	if o.MeanLen <= 0 {
		o.MeanLen = 32
	}
	if o.SDLen <= 0 {
		o.SDLen = 4
	}
}

// DNA generates n short reads by sampling substrings (length ~ N(32, 4),
// floored at 8) from a single order-2 Markov synthetic genome, mirroring the
// paper's sampling of the human genome. Compared with the normalized
// Levenshtein distance.
func DNA(seed int64, n int, opts DNAOptions) [][]byte {
	opts.defaults(n)
	r := rand.New(rand.NewSource(seed))
	chain := synth.NewMarkovText(r, []byte("ACGT"), 3)
	genome := chain.Generate(r, opts.GenomeLen)

	seqs := make([][]byte, n)
	for i := 0; i < n; i++ {
		l := synth.NormalInt(r, opts.MeanLen, opts.SDLen, 8)
		if l > len(genome) {
			l = len(genome)
		}
		start := r.Intn(len(genome) - l + 1)
		seq := make([]byte, l)
		copy(seq, genome[start:start+l])
		seqs[i] = seq
	}
	return seqs
}
