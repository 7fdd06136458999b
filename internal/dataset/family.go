package dataset

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/jsonscan"
	"repro/internal/space"
)

// objectType is everything that depends on a family's object type and not
// on which data set it is: the distances the type admits, and how one
// object crosses JSON.
type objectType[T any] struct {
	kind   string           // "dense-vector", ... for error messages
	spaces []space.Space[T] // admitted distances
	encode func(T) (json.RawMessage, error)
	decode func(raw json.RawMessage, like T) (T, error)
}

// newType builds an object type around its wire value W, the Go value
// encoding/json renders as the type's JSON form: wire maps an object to it,
// build maps it back and checks every shape that must agree with the corpus
// (like is a corpus member) — the distance functions panic or silently
// mis-answer on a mismatch.
func newType[T, W any](kind string, wire func(T) W, build func(w W, like T) (T, error), spaces ...space.Space[T]) objectType[T] {
	return objectType[T]{kind: kind, spaces: spaces,
		encode: func(x T) (json.RawMessage, error) { return json.Marshal(wire(x)) },
		decode: func(raw json.RawMessage, like T) (obj T, err error) {
			var w W
			if err = json.Unmarshal(raw, &w); err != nil {
				return obj, err
			}
			return build(w, like)
		}}
}

// Family is one row of the data-set table at its static object type T: the
// name a manifest or a -dataset flag carries, the generator behind it, the
// distances it may be indexed under, and the JSON form of one object — the
// encoding queries, added objects and golden probes all share.
type Family[T any] struct {
	name, dims string
	gen        func(seed int64, n int) []T
	objectType[T]
}

// Name is the data-set name Lookup resolves.
func (f *Family[T]) Name() string { return f.name }

// Dims is the Table 1 dimensionality column ("N/A" for variable-size
// objects).
func (f *Family[T]) Dims() string { return f.dims }

// Gen generates the first n objects of the corpus seed names; a shorter
// corpus of the same seed is a prefix of a longer one.
func (f *Family[T]) Gen(seed int64, n int) []T { return f.gen(seed, n) }

// Spaces lists the distances the family admits, the paper's first.
func (f *Family[T]) Spaces() []space.Space[T] { return f.spaces }

// Space resolves a distance by its tag (the space name an index file
// header records). A tag of another object type means the file and its
// manifest disagree.
func (f *Family[T]) Space(tag string) (space.Space[T], error) {
	for _, sp := range f.spaces {
		if sp.Name() == tag {
			return sp, nil
		}
	}
	return nil, fmt.Errorf("no %s space %q", f.kind, tag)
}

// Encode renders one object in the wire form Decode reads.
func (f *Family[T]) Encode(x T) (json.RawMessage, error) { return f.encode(x) }

// Decode parses one object from its wire form and checks its shape against
// like, a member of the corpus it will be compared with; a wrong-shaped or
// degenerate object is an error to its sender, never a panic or a wrong
// answer from the distance function.
func (f *Family[T]) Decode(raw json.RawMessage, like T) (T, error) { return f.decode(raw, like) }

// Queries generates q objects under seed and encodes them.
func (f *Family[T]) Queries(seed int64, q int) ([]json.RawMessage, error) {
	out := make([]json.RawMessage, 0, q)
	for _, x := range f.gen(seed, q) {
		raw, err := f.Encode(x)
		if err != nil {
			return nil, err
		}
		out = append(out, raw)
	}
	return out, nil
}

// Entry is a Family of any object type: what Lookup returns. A caller that
// needs the objects type-switches on the five *Family[T] instantiations
// ([]float32, []byte, space.SparseVector, space.Histogram, space.Signature)
// — one arm per object type, never per data-set name; one that only ships
// probes uses Queries.
type Entry interface {
	Name() string
	Queries(seed int64, q int) ([]json.RawMessage, error)
}

// The five object types.

// [0.5, 1, ...] of the corpus dimensionality. Queries, /add objects and WAL
// replay all pass through decodeDense, so it reads the array directly
// instead of through encoding/json's reflection.
var denseVectors = objectType[[]float32]{kind: "dense-vector",
	spaces: []space.Space[[]float32]{space.L2{}, space.L1{}},
	encode: func(v []float32) (json.RawMessage, error) { return json.Marshal(v) },
	decode: decodeDense}

// decodeDense is json.Unmarshal into []float32 followed by the dimension
// check, in one pass: the same accept set and the same values bit for bit,
// since each element goes through the strconv.ParseFloat(lit, 32) call
// encoding/json makes. Its quirks hold too: a null element is 0, a number
// beyond float32 range is refused, and a null vector has 0 dimensions.
func decodeDense(raw json.RawMessage, like []float32) ([]float32, error) {
	r := jsonscan.NewReader(raw)
	var v []float32
	if !r.Null() {
		v = make([]float32, 0, len(like))
		err := r.Array(func() error {
			if r.Null() {
				v = append(v, 0)
				return nil
			}
			lit, err := r.Number()
			if err != nil {
				return err
			}
			f, err := strconv.ParseFloat(string(lit), 32)
			if err != nil {
				return fmt.Errorf("number %s does not fit a float32", lit)
			}
			v = append(v, float32(f))
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	if len(v) != len(like) {
		return nil, fmt.Errorf("vector has %d dimensions, index corpus has %d", len(v), len(like))
	}
	return v, nil
}

// "ACGT".
var byteStrings = newType("byte-string",
	func(s []byte) *string { str := string(s); return &str },
	func(s *string, _ []byte) ([]byte, error) {
		if s == nil {
			return nil, errors.New("string is null")
		}
		return []byte(*s), nil
	}, space.NormalizedLevenshtein{}, space.Levenshtein{})

// {"idx": [3, 17], "val": [0.5, 1.25]}. Sparse cosine imposes no
// dimensionality; NewSparseVector validates the pairs, and a vector without
// direction has no cosine distance to anything.
type sparseWire struct {
	Idx []int32   `json:"idx"`
	Val []float32 `json:"val"`
}

var sparseVectors = newType("sparse-vector",
	func(v space.SparseVector) sparseWire { return sparseWire{v.Idx, v.Val} },
	func(w sparseWire, _ space.SparseVector) (space.SparseVector, error) {
		v, err := space.NewSparseVector(w.Idx, w.Val)
		if err != nil {
			return space.SparseVector{}, fmt.Errorf(`"idx"/"val": %w`, err)
		}
		if v.Norm == 0 {
			return space.SparseVector{}, errors.New(`"val": sparse vector is empty or has zero norm`)
		}
		return v, nil
	}, space.CosineDistance{})

// [0.2, 0.8, ...] over the corpus's bin count, floored and renormalized
// exactly like the data set's preprocessing — which is not idempotent:
// re-decoding an already preprocessed histogram floors its floored bins
// again and moves everything by that renormalization.
var histograms = newType("histogram",
	func(h space.Histogram) []float32 { return h.P },
	func(p []float32, like space.Histogram) (space.Histogram, error) {
		if len(p) != len(like.P) {
			return space.Histogram{}, fmt.Errorf("histogram has %d bins, index corpus has %d", len(p), len(like.P))
		}
		h := space.NewHistogram(p)
		// The floor is applied before normalizing, so beside float32-max
		// masses a floored bin underflows to 0: log 0, infinite
		// divergences, an answer JSON cannot carry.
		if slices.Contains(h.P, 0) {
			return space.Histogram{}, errors.New("histogram has a bin that underflows to zero once normalized")
		}
		return h, nil
	}, space.KLDivergence{}, space.JSDivergence{})

// {"weights": [...], "centroids": [...], "dim": 7} with the corpus's feature
// dimensionality.
type signatureWire struct {
	Weights   []float32 `json:"weights"`
	Centroids []float32 `json:"centroids"`
	Dim       int       `json:"dim"`
}

var signatures = newType("signature",
	func(s space.Signature) signatureWire { return signatureWire{s.Weights, s.Centroids, s.Dim} },
	func(w signatureWire, like space.Signature) (space.Signature, error) {
		if w.Dim != like.Dim {
			return space.Signature{}, fmt.Errorf("signature has dim %d, index corpus has %d", w.Dim, like.Dim)
		}
		return space.NewSignature(w.Weights, w.Centroids, w.Dim)
	}, space.SQFD{})

// table is the paper's Table 1 by data set (its nine rows are these seven
// under their admitted distances), with each generator's option defaults
// decided here.
var table = []Entry{
	&Family[[]float32]{name: "sift", dims: "128", gen: SIFT, objectType: denseVectors},
	&Family[[]float32]{name: "cophir", dims: "282", gen: CoPhIR, objectType: denseVectors},
	&Family[space.Signature]{name: "imagenet", dims: "N/A", objectType: signatures,
		gen: func(seed int64, n int) []space.Signature { return ImageNet(seed, n, SignatureOptions{}) }},
	&Family[space.SparseVector]{name: "wiki-sparse", dims: "100000", objectType: sparseVectors,
		gen: func(seed int64, n int) []space.SparseVector { return WikiSparse(seed, n, WikiSparseOptions{}) }},
	wikiLDA("wiki-8", 8),
	wikiLDA("wiki-128", 128),
	&Family[[]byte]{name: "dna", dims: "N/A", objectType: byteStrings,
		gen: func(seed int64, n int) [][]byte { return DNA(seed, n, DNAOptions{}) }},
}

func wikiLDA(name string, topics int) *Family[space.Histogram] {
	return &Family[space.Histogram]{name: name, dims: strconv.Itoa(topics), objectType: histograms,
		gen: func(seed int64, n int) []space.Histogram { return WikiLDA(seed, n, topics) }}
}

// Names lists the paper's data sets in table order. Lookup also resolves
// any other "wiki-<topics>".
func Names() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.Name()
	}
	return names
}

// Lookup resolves a data-set name: a table row, or "wiki-<topics>" (topics
// > 1) for LDA histograms of any other width.
func Lookup(name string) (Entry, error) {
	for _, e := range table {
		if e.Name() == name {
			return e, nil
		}
	}
	if rest, ok := strings.CutPrefix(name, "wiki-"); ok {
		topics, err := strconv.Atoi(rest)
		if err != nil || topics <= 1 {
			return nil, fmt.Errorf("dataset %q is not wiki-<topics>", name)
		}
		return wikiLDA(name, topics), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

// Typed is Lookup for a caller that names the object type statically.
func Typed[T any](name string) (*Family[T], error) {
	e, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	f, ok := e.(*Family[T])
	if !ok {
		var zero T
		return nil, fmt.Errorf("dataset %q does not hold %T objects", name, zero)
	}
	return f, nil
}
