package dataset

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/space"
)

// typeCase is what the family checks need to know per object type: the
// distance tags the type admits (the serving catalog's resolvers, before
// they moved here), wire forms its Decode must refuse whatever the corpus,
// when two decoded objects count as the same, and whether Decode(Encode(x))
// is x (under same) for anything Decode returns — it must be for generated
// objects.
type typeCase[T any] struct {
	tags   []string
	bad    []string
	same   func(a, b T) bool
	stable bool
}

func exactly[T any](a, b T) bool { return reflect.DeepEqual(a, b) }

func within(a, b []float32, tol float64) bool {
	return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Abs(float64(x)-float64(y)) <= tol })
}

var (
	denseCase = typeCase[[]float32]{
		tags: []string{"l2", "l1"},
		bad:  []string{`[1,2]`, `[]`, `null`, `"ACGT"`, `{}`, `[1,`, `[1e40]`},
		same: exactly[[]float32], stable: true,
	}
	stringCase = typeCase[[]byte]{
		tags: []string{"normleven", "leven"},
		bad:  []string{`null`, `[1]`, `12`, `"unterminated`, `{"s":"ACGT"}`},
		same: exactly[[]byte], stable: true,
	}
	sparseCase = typeCase[space.SparseVector]{
		tags: []string{"cosine"},
		bad: []string{
			`{"idx":[-4],"val":[0.5]}`, // negative term id
			`{}`, `null`,               // no direction
			`{"idx":[3],"val":[0]}`,     // zero norm
			`{"idx":[1,2],"val":[0.5]}`, // pair shape
			`{"idx":[3,3],"val":[1,1]}`, // duplicate term
			`{"idx":[3],"val":[1e40]}`, `[1,2]`, `{"idx":[3],"val":[1]`,
		},
		same: exactly[space.SparseVector], stable: true,
	}
	// Decoding floors, then renormalizes, so an already preprocessed
	// histogram comes back moved by that second pass: floored bins by a
	// relative bins*1e-5, everything else by a float32 rounding (of 500
	// generated wiki-128 histograms none is a fixed point). Masses in
	// other units are not even close to one: [0,...,1e6] decodes to 1e-11
	// in the floored bins, and its re-encoding to 1e-5.
	histogramCase = typeCase[space.Histogram]{
		tags: []string{"kldiv", "jsdiv"},
		bad:  []string{`[0.5,0.5]`, `[0.2,0.2,0.2,0.2,0.2]`, `[]`, `null`, `"x"`, `[0.1,`, `{"p":[1]}`},
		same: func(a, b space.Histogram) bool { return within(a.P, b.P, 1e-6) && within(a.LogP, b.LogP, 1e-2) },
	}
	// NewSignature renormalizes the weights; generated ones already sum
	// to 1 exactly, arbitrary ones move by a float32 rounding.
	signatureCase = typeCase[space.Signature]{
		tags: []string{"sqfd"},
		bad: []string{
			`null`, `{}`, `[1]`,
			`{"weights":[1],"centroids":[0,0,0],"dim":3}`,              // not the corpus's feature dim
			`{"weights":[1,1],"centroids":[0,0,0,0,0,0,0],"dim":7}`,    // centroid count
			`{"weights":[-1],"centroids":[0,0,0,0,0,0,0],"dim":7}`,     // negative weight
			`{"weights":[0],"centroids":[0,0,0,0,0,0,0],"dim":7}`,      // zero mass
			`{"weights":[],"centroids":[],"dim":7}`, `{"weights":[1],`, // empty, malformed
		},
		same: func(a, b space.Signature) bool {
			return a.Dim == b.Dim && within(a.Weights, b.Weights, 1e-6) && slices.Equal(a.Centroids, b.Centroids)
		},
		stable: true,
	}
)

// allTags is every distance tag of every object type: a family must refuse
// the ones that are not its own.
var allTags = slices.Concat(denseCase.tags, stringCase.tags, sparseCase.tags, histogramCase.tags, signatureCase.tags)

// TestFamilies runs the family contract over the whole table plus an
// off-table width of the wiki-<topics> grammar.
func TestFamilies(t *testing.T) {
	for _, name := range append(Names(), "wiki-3") {
		t.Run(name, func(t *testing.T) {
			e, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			if e.Name() != name {
				t.Errorf("Lookup(%q).Name() = %q", name, e.Name())
			}
			switch f := e.(type) {
			case *Family[[]float32]:
				checkFamily(t, f, denseCase)
			case *Family[[]byte]:
				checkFamily(t, f, stringCase)
			case *Family[space.SparseVector]:
				checkFamily(t, f, sparseCase)
			case *Family[space.Histogram]:
				checkFamily(t, f, histogramCase)
			case *Family[space.Signature]:
				checkFamily(t, f, signatureCase)
			default:
				t.Fatalf("Lookup(%q) is a %T: not one of the five object types", name, e)
			}
		})
	}
}

func checkFamily[T any](t *testing.T, f *Family[T], c typeCase[T]) {
	// Prefix stability: permbench's oracle holds Gen(seed, n+pool)[:n]
	// while the daemon regenerates Gen(seed, n), and a shard is a subset
	// of ids into the full corpus. (DNA's synthetic genome grows with n
	// past n = 16384, so for it this holds below that size only.)
	const n, m = 40, 25
	data := f.Gen(5, n)
	if len(data) != n {
		t.Fatalf("Gen(5, %d) returned %d objects", n, len(data))
	}
	if !reflect.DeepEqual(data[:m], f.Gen(5, m)) {
		t.Errorf("Gen(5, %d)[:%d] differs from Gen(5, %d)", n, m, m)
	}

	like, rest := data[0], data[1:]
	for i, x := range rest {
		raw, err := f.Encode(x)
		if err != nil {
			t.Fatalf("Encode(object %d): %v", i+1, err)
		}
		got, err := f.Decode(raw, like)
		if err != nil {
			t.Fatalf("Decode(Encode(object %d)): %v", i+1, err)
		}
		if !c.same(got, x) {
			t.Fatalf("Decode(Encode(object %d)) = %v, want %v", i+1, got, x)
		}
	}
	probes, err := f.Queries(5, 3)
	if err != nil || len(probes) != 3 {
		t.Fatalf("Queries(5, 3): %d probes, %v", len(probes), err)
	}
	for i, p := range probes {
		if want, _ := f.Encode(data[i]); string(p) != string(want) {
			t.Errorf("Queries(5, 3)[%d] is not Encode(Gen(5, 3)[%d])", i, i)
		}
	}

	for _, raw := range c.bad {
		if got, err := f.Decode(json.RawMessage(raw), like); err == nil {
			t.Errorf("Decode(%s) = %v, want an error", raw, got)
		}
	}

	if got := f.Spaces()[0].Name(); got != c.tags[0] {
		t.Errorf("first distance is %q, want %q", got, c.tags[0])
	}
	for _, tag := range allTags {
		sp, err := f.Space(tag)
		switch own := slices.Contains(c.tags, tag); {
		case own && err != nil:
			t.Errorf("Space(%q): %v", tag, err)
		case own && sp.Name() != tag:
			t.Errorf("Space(%q) resolved %q", tag, sp.Name())
		case !own && err == nil:
			t.Errorf("Space(%q) resolved a distance of another object type", tag)
		}
	}
}

// TestHistogramUnderflow: beside float32-max masses a floored bin
// normalizes to 0 at 128 bins (not at 8), and the daemon used to answer that
// query with a 200 and no body.
func TestHistogramUnderflow(t *testing.T) {
	f, err := Typed[space.Histogram]("wiki-128")
	if err != nil {
		t.Fatal(err)
	}
	masses := slices.Repeat([]float32{math.MaxFloat32}, 128)
	masses[0] = 0
	raw, err := json.Marshal(masses)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := f.Decode(raw, f.Gen(1, 1)[0]); err == nil {
		t.Errorf("Decode accepted a histogram with a zero bin: %v", h.P[:2])
	}
}

func TestLookupRefuses(t *testing.T) {
	for _, name := range []string{"", "nope", "SIFT", "wiki-", "wiki-x", "wiki-1", "wiki-0", "wiki--8", "wiki-8-kl"} {
		if e, err := Lookup(name); err == nil {
			t.Errorf("Lookup(%q) resolved %q", name, e.Name())
		}
	}
	if _, err := Typed[[]byte]("sift"); err == nil {
		t.Error("Typed[[]byte] accepted a dense-vector data set")
	}
}

// FuzzDecodeObject feeds arbitrary bytes to the Decode of every object type
// — the one parser queries and WAL-durable adds pass through. It must never
// panic; what it accepts must be an object whose distances to a corpus
// member, in both argument orders, are numbers a JSON answer can carry, and
// must survive its own Encode.
func FuzzDecodeObject(f *testing.F) {
	targets := []func(t *testing.T, raw []byte){
		fuzzTarget(f, "sift", denseCase),
		fuzzTarget(f, "dna", stringCase),
		fuzzTarget(f, "wiki-sparse", sparseCase),
		fuzzTarget(f, "wiki-128", histogramCase),
		fuzzTarget(f, "imagenet", signatureCase),
	}
	for _, raw := range slices.Concat(denseCase.bad, stringCase.bad, sparseCase.bad, histogramCase.bad, signatureCase.bad, denseQuirks) {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, target := range targets {
			target(t, raw)
		}
		checkDenseAgainstJSON(t, raw)
	})
}

// denseQuirks are the corners of json.Unmarshal into []float32 the dense
// decoder must share: null elements, float32 range and rounding, signed
// zero, subnormals, and everything the JSON number grammar refuses that
// strconv.ParseFloat would take.
var denseQuirks = []string{
	`[1,null,2]`, `[null]`, `[01]`, `[1e39]`, `[-1e39]`, `[3.4028235e38]`, `[3.4028236e38]`, `[3.40282357e38]`,
	`[-0]`, `[-0.0e-0]`, `[1e-46]`, `[1.4e-45]`, `[0.1, 0.2E+1, 5e-1]`, " \t[ 1 ,\n2 ]\r\n", `null`, ` null `,
	`[1]x`, `[1] [2]`, `[1,]`, `[,1]`, `[1 2]`, `["1"]`, `[true]`, `[[1]]`, `[{}]`, `{}`, `1`, `"a"`, ``, `[`,
	`[1.]`, `[.5]`, `[+1]`, `[1e]`, `[1e+]`, `[-]`, `[Infinity]`, `[NaN]`, `[0x10]`, `[1_0]`, `[nul]`, `[nulll]`,
	`[123456789012345678901234567890]`, `[0.000000000000000000000000000000000000000000001]`,
}

// checkDenseAgainstJSON holds the dense decoder to json.Unmarshal into
// []float32 plus the dimension check: the same accept set and, bit for
// bit, the same values. The corpus dimensionality is taken from the
// reference's own length, so every parse it accepts is compared; one more
// dimension must then be refused.
func checkDenseAgainstJSON(t *testing.T, raw []byte) {
	var want []float32
	wantErr := json.Unmarshal(raw, &want)
	like := make([]float32, len(want))
	got, err := denseVectors.decode(raw, like)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("dense Decode(%q) = %v, %v; json.Unmarshal: %v, %v", raw, got, err, want, wantErr)
	}
	if err != nil {
		return
	}
	if !slices.EqualFunc(got, want, func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }) {
		t.Fatalf("dense Decode(%q) = %v, json.Unmarshal gives %v", raw, got, want)
	}
	if _, err := denseVectors.decode(raw, append(like, 0)); err == nil {
		t.Fatalf("dense Decode(%q) accepted %d dimensions against a corpus of %d", raw, len(got), len(like)+1)
	}
}

// fuzzTarget seeds the corpus with one encoded object of the family and
// returns its check.
func fuzzTarget[T any](f *testing.F, name string, c typeCase[T]) func(t *testing.T, raw []byte) {
	fam, err := Typed[T](name)
	if err != nil {
		f.Fatal(err)
	}
	data := fam.Gen(1, 2)
	like, member := data[0], data[1]
	seed, err := fam.Encode(member)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(seed))
	return func(t *testing.T, raw []byte) {
		obj, err := fam.Decode(raw, like)
		if err != nil {
			return
		}
		for _, sp := range fam.Spaces() {
			if d := sp.Distance(member, obj); math.IsNaN(d) || math.IsInf(d, 0) {
				t.Errorf("%s: %s(member, Decode(%q)) = %v", name, sp.Name(), raw, d)
			}
			if d := sp.Distance(obj, member); math.IsNaN(d) || math.IsInf(d, 0) {
				t.Errorf("%s: %s(Decode(%q), member) = %v", name, sp.Name(), raw, d)
			}
		}
		again, err := fam.Encode(obj)
		if err != nil {
			t.Fatalf("%s: Encode(Decode(%q)): %v", name, raw, err)
		}
		back, err := fam.Decode(again, like)
		if err != nil {
			t.Fatalf("%s: Decode(%q) succeeded but its re-encoding %s does not decode: %v", name, raw, again, err)
		}
		if c.stable && !c.same(back, obj) {
			t.Errorf("%s: Decode(%q) = %v re-encodes to %s, which decodes to %v", name, raw, obj, again, back)
		}
	}
}
