package space_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/space"
)

// checkMany asserts Many and ManyFrom return the Distance loop's bits over
// objs for 0, 1, odd and even counts, with one Scratch reused throughout.
func checkMany[T any](t *testing.T, sp space.Space[T], objs []T) {
	t.Helper()
	r := rand.New(rand.NewSource(int64(len(objs))))
	var s space.Scratch
	query, x := objs[0], objs[len(objs)-1]
	for _, n := range []int{0, 1, 2, 3, 7, 8, len(objs)} {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(r.Intn(len(objs)))
		}
		dst := make([]float64, n)
		space.Many(sp, &s, dst, query, objs, ids)
		for i, id := range ids {
			if want := sp.Distance(objs[id], query); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("%s: Many(%d ids)[%d] = %v, Distance = %v", sp.Name(), n, i, dst[i], want)
			}
		}
		pivots := objs[:min(n, len(objs))]
		space.ManyFrom(sp, &s, dst, x, pivots)
		for i, pv := range pivots {
			if want := sp.Distance(x, pv); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("%s: ManyFrom(%d pivots)[%d] = %v, Distance = %v", sp.Name(), n, i, dst[i], want)
			}
		}
	}
}

// checkFamily runs checkMany under every distance the family admits.
func checkFamily[T any](t *testing.T, f *dataset.Family[T]) {
	objs := f.Gen(3, 12)
	for _, sp := range f.Spaces() {
		t.Run(f.Name()+"/"+sp.Name(), func(t *testing.T) { checkMany(t, sp, objs) })
	}
}

// TestManyMatchesDistance is the bulk seam's contract: for every distance a
// served data set admits, Many and ManyFrom are the per-pair Distance loop,
// bit for bit.
func TestManyMatchesDistance(t *testing.T) {
	for _, name := range dataset.Names() {
		e, err := dataset.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		switch f := e.(type) {
		case *dataset.Family[[]float32]:
			checkFamily(t, f)
		case *dataset.Family[[]byte]:
			checkFamily(t, f)
		case *dataset.Family[space.SparseVector]:
			checkFamily(t, f)
		case *dataset.Family[space.Histogram]:
			checkFamily(t, f)
		case *dataset.Family[space.Signature]:
			checkFamily(t, f)
		default:
			t.Fatalf("dataset %q: unhandled object type %T", name, e)
		}
	}
}

// TestManyL2EveryTail runs the L2 pair kernel through every tail length a
// 4-lane split has, over values of both signs and wide range.
func TestManyL2EveryTail(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for dim := 0; dim <= 129; dim++ {
		objs := make([][]float32, 9)
		for i := range objs {
			objs[i] = make([]float32, dim)
			for j := range objs[i] {
				objs[i][j] = float32(r.NormFloat64() * math.Pow(10, float64(r.Intn(9)-4)))
			}
		}
		checkMany[[]float32](t, space.L2{}, objs)
	}
}

// TestManyL2PrefetchEdges runs the L2 arm's prefetch window across its
// edges: every count of ids from 0 to two windows of 8 and a pair and a tail
// past them, where the ids ahead run out before, inside and after the pair
// loop. The ids are unsorted, repeat one id and end on the last corpus
// object, so a window that reads past len(ids) or a wrong index shows as a
// panic or a changed distance. Warm calls must not allocate.
func TestManyL2PrefetchEdges(t *testing.T) {
	objs := dataset.SIFT(7, 40)
	last := uint32(len(objs) - 1)
	var s space.Scratch
	dst := make([]float64, 2*8+3)
	for n := 0; n <= 2*8+3; n++ {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(i*23+5) % last
		}
		if n > 0 {
			ids[n-1] = last
		}
		if n > 2 {
			ids[n/2] = ids[0]
		}
		space.Many(space.L2{}, &s, dst, objs[1], objs, ids)
		for i, id := range ids {
			if want := (space.L2{}).Distance(objs[id], objs[1]); math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("Many(%d ids)[%d] = %v, Distance = %v", n, i, dst[i], want)
			}
		}
		if avg := testing.AllocsPerRun(10, func() { space.Many(space.L2{}, &s, dst, objs[2], objs, ids) }); avg != 0 {
			t.Errorf("warm Many over %d ids allocates %v times per call, want 0", n, avg)
		}
	}
}

// TestManyLevenshteinEdges runs the prepared-pattern arm across its edges:
// fixed arguments of 0 bytes and 65 (both take the Distance loop) and of 1,
// 63 and 64 bytes (the word's ends), against empty texts, texts shorter and
// longer than the pattern, texts past one word, and bytes outside ACGT — in
// an odd-sized set, so every count checkMany draws has pairs and a tail.
func TestManyLevenshteinEdges(t *testing.T) {
	r := rand.New(rand.NewSource(27))
	read := func(n int, acgt bool) []byte {
		b := make([]byte, n)
		for i := range b {
			if acgt {
				b[i] = "ACGT"[r.Intn(4)]
			} else {
				b[i] = byte(r.Intn(256))
			}
		}
		return b
	}
	for _, m := range []int{0, 1, 2, 31, 63, 64, 65} {
		query := read(m, true)
		x := append(bytes.Clone(query[:m/2]), read(m-m/2, false)...)
		objs := [][]byte{query, {}, read(1, true), read(max(m-1, 0), true), read(m+1, true),
			read(m, false), read(70, true), read(130, false), bytes.Clone(query), read(m/2, true),
			append(bytes.Clone(query), 'T'), read(5, false), x}
		for _, sp := range []space.Space[[]byte]{space.NormalizedLevenshtein{}, space.Levenshtein{}} {
			t.Run(fmt.Sprintf("%s/m%d", sp.Name(), m), func(t *testing.T) { checkMany(t, sp, objs) })
		}
	}
}

// overridden embeds L2 but answers its own Distance, as a test gate or an
// instrumented space does: the bulk calls must not take L2's fast path
// around it.
type overridden struct{ space.L2 }

func (overridden) Distance(a, b []float32) float64 { return -1 }

// overriddenLeven does the same to NormalizedLevenshtein's prepared arm.
type overriddenLeven struct{ space.NormalizedLevenshtein }

func (overriddenLeven) Distance(a, b []byte) float64 { return -1 }

// TestManyKeepsWrappers pins the exact-type dispatch: an embedding type's
// Distance is called for every pair, and a Counter counts every pair.
func TestManyKeepsWrappers(t *testing.T) {
	checkWrappers[[]float32](t, overridden{}, space.L2{}, dataset.SIFT(4, 9))
	checkWrappers[[]byte](t, overriddenLeven{}, space.NormalizedLevenshtein{}, dataset.DNA(4, 9, dataset.DNAOptions{}))
}

func checkWrappers[T any](t *testing.T, wrapper, fast space.Space[T], objs []T) {
	t.Helper()
	ids := []uint32{0, 3, 3, 8, 5, 1, 2}
	dst := make([]float64, len(ids))
	var s space.Scratch
	for name, call := range map[string]func(space.Space[T]){
		"Many":     func(sp space.Space[T]) { space.Many(sp, &s, dst, objs[0], objs, ids) },
		"ManyFrom": func(sp space.Space[T]) { space.ManyFrom(sp, &s, dst, objs[0], objs[:len(ids)]) },
	} {
		call(wrapper)
		for i, d := range dst {
			if d != -1 {
				t.Errorf("%s over a %s-embedding space: dst[%d] = %v, want its Distance's -1", name, fast.Name(), i, d)
			}
		}
		c := space.NewCounter(fast)
		call(c)
		if c.Count() != int64(len(ids)) {
			t.Errorf("%s through a %s Counter counted %d calls, want %d", name, fast.Name(), c.Count(), len(ids))
		}
	}
}

// TestManyAllocs pins the scratch contract: once a Scratch has widened one
// query or prepared one pattern, the bulk calls allocate nothing.
func TestManyAllocs(t *testing.T) {
	checkManyAllocs[[]float32](t, space.L2{}, dataset.SIFT(5, 64))
	checkManyAllocs[[]byte](t, space.NormalizedLevenshtein{}, dataset.DNA(5, 64, dataset.DNAOptions{}))
}

func checkManyAllocs[T any](t *testing.T, sp space.Space[T], objs []T) {
	t.Helper()
	ids := []uint32{9, 1, 40, 63, 7}
	dst := make([]float64, len(objs))
	var s space.Scratch
	space.Many(sp, &s, dst, objs[0], objs, ids)
	if avg := testing.AllocsPerRun(20, func() { space.Many(sp, &s, dst, objs[1], objs, ids) }); avg != 0 {
		t.Errorf("%s: warm Many allocates %v times per call, want 0", sp.Name(), avg)
	}
	if avg := testing.AllocsPerRun(20, func() { space.ManyFrom(sp, &s, dst, objs[2], objs) }); avg != 0 {
		t.Errorf("%s: warm ManyFrom allocates %v times per call, want 0", sp.Name(), avg)
	}
}
