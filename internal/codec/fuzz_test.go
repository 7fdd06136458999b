package codec_test

// The fuzz target lives in the codec package's external test package so it
// can drive the full load path — codec header/checksum decoding plus every
// kind payload decoder behind the internal/persist registry — without an
// import cycle.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/knngraph"
	"repro/internal/lsh"
	"repro/internal/persist"
	"repro/internal/seqscan"
	"repro/internal/space"
	"repro/internal/vptree"
)

// fuzzCorpus is the small deterministic data set every fuzz load runs
// against: 40 4-d vectors on a fixed lattice. It must never change, or the
// checked-in seed blobs (built over it) stop matching its recorded size.
func fuzzCorpus() [][]float32 {
	data := make([][]float32, 40)
	for i := range data {
		data[i] = []float32{
			float32(i % 5), float32((i * 7) % 11),
			float32((i * 3) % 13), float32(i) / 4,
		}
	}
	return data
}

// fuzzSeeds builds one valid blob per representative kind over the fuzz
// corpus. Every structural family is covered: flat arrays (brute-force),
// posting lists (napp, mi-file), recursive trees (pp-index, vptree,
// perm-vptree), adjacency lists (sw-graph), hash tables (mplsh), sorted
// voter lists (omedrank) and the empty payload (seqscan). Every user of the
// permutation methods' pivot frame is among them.
func fuzzSeeds(tb testing.TB) [][]byte {
	data := fuzzCorpus()
	sp := space.L2{}
	builders := []func() (index.Index[[]float32], error){
		func() (index.Index[[]float32], error) {
			return core.NewBruteForceFilter[[]float32](sp, data, core.BruteForceOptions{NumPivots: 8, Seed: 3})
		},
		func() (index.Index[[]float32], error) {
			return core.NewNAPP[[]float32](sp, data, core.NAPPOptions{NumPivots: 8, NumPivotIndex: 4, MinShared: 1, Seed: 3})
		},
		func() (index.Index[[]float32], error) {
			return core.NewPPIndex[[]float32](sp, data, core.PPIndexOptions{NumPivots: 8, PrefixLen: 3, Copies: 2, Seed: 3})
		},
		func() (index.Index[[]float32], error) {
			return vptree.New[[]float32](sp, data, vptree.Options{BucketSize: 4, Seed: 3})
		},
		func() (index.Index[[]float32], error) {
			return knngraph.NewSW[[]float32](sp, data, knngraph.Options{NN: 4, Seed: 3})
		},
		func() (index.Index[[]float32], error) {
			return lsh.New(data, lsh.Options{Tables: 2, Hashes: 4, Seed: 3})
		},
		func() (index.Index[[]float32], error) {
			return seqscan.New[[]float32](sp, data), nil
		},
		func() (index.Index[[]float32], error) {
			return core.NewMIFile[[]float32](sp, data, core.MIFileOptions{NumPivots: 8, NumPivotIndex: 4, NumPivotSearch: 2, Seed: 3})
		},
		func() (index.Index[[]float32], error) {
			return core.NewOMEDRANK[[]float32](sp, data, core.OMEDRANKOptions{NumVoters: 3, Seed: 3})
		},
		func() (index.Index[[]float32], error) {
			return core.NewPermVPTree[[]float32](sp, data, core.PermVPTreeOptions{NumPivots: 8, BucketSize: 4, Seed: 3})
		},
	}
	var out [][]byte
	for _, build := range builders {
		idx, err := build()
		if err != nil {
			tb.Fatal(err)
		}
		var blob bytes.Buffer
		if err := persist.Save(&blob, idx); err != nil {
			tb.Fatal(err)
		}
		out = append(out, blob.Bytes())
	}
	return out
}

// FuzzLoad feeds arbitrary bytes to the full index-load path. The contract
// under fuzz: Load either succeeds or returns an error — it never panics,
// never allocates absurdly off a corrupt length prefix, and any index it
// does accept must survive being searched.
func FuzzLoad(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		// Mutants that keep structure but break the trailer or header,
		// steering coverage toward the validation paths.
		if len(seed) > 8 {
			f.Add(seed[:len(seed)/2])
			flip := bytes.Clone(seed)
			flip[len(flip)/3] ^= 0x10
			f.Add(flip)
		}
	}
	data := fuzzCorpus()
	queries := [][]float32{data[0], {9, 9, 9, 9}}
	f.Fuzz(func(t *testing.T, blob []byte) {
		idx, err := persist.Load[[]float32](bytes.NewReader(blob), space.L2{}, data)
		if err != nil {
			return
		}
		// A blob that passes every validation layer must yield a
		// fully functional index.
		for _, q := range queries {
			for _, k := range []int{1, 3, len(data) + 2} {
				idx.Search(q, k)
			}
		}
	})
}

// TestWriteSeedCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/FuzzLoad when WRITE_FUZZ_CORPUS is set (it is a maintenance
// tool, not a test: run it after any format change and commit the output).
// The corpus duplicates the f.Add seeds on disk so `go test -fuzz` starts
// from real blobs even in checkouts where the builders have drifted, and so
// minimized crash inputs have a stable home.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set WRITE_FUZZ_CORPUS=1 to regenerate testdata/fuzz/FuzzLoad")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzLoad")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, blob []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), corpusFile(blob), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, seed := range fuzzSeeds(t) {
		write(fmt.Sprintf("seed-valid-%d", i), seed)
		if len(seed) > 8 {
			write(fmt.Sprintf("seed-truncated-%d", i), seed[:len(seed)/2])
			flip := bytes.Clone(seed)
			flip[len(flip)/3] ^= 0x10
			write(fmt.Sprintf("seed-bitflip-%d", i), flip)
		}
	}
	write("seed-empty", nil)
	write("seed-bad-magic", []byte("NOPE....definitely not an index"))
}

// corpusFile renders blob in the go-fuzz corpus file format.
func corpusFile(blob []byte) []byte {
	return fmt.Appendf(nil, "go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(blob)))
}

// TestSeedCorpusIsCurrent pins the on-disk format: what the seed builders
// save today must be, byte for byte, the checked-in blobs an earlier
// checkout saved. A change of in-memory representation (NAPP's posting
// bitmaps, say) that moves these bytes has changed the index files.
func TestSeedCorpusIsCurrent(t *testing.T) {
	for i, seed := range fuzzSeeds(t) {
		name := filepath.Join("testdata", "fuzz", "FuzzLoad", fmt.Sprintf("seed-valid-%d", i))
		have, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(have, corpusFile(seed)) {
			t.Errorf("%s no longer matches its builder: the codec payload changed (bump the version and regenerate with WRITE_FUZZ_CORPUS=1)", name)
		}
	}
}

// TestFuzzSeedsRoundtrip keeps the seed builders honest on every ordinary
// `go test` run: each seed blob must load cleanly and search.
func TestFuzzSeedsRoundtrip(t *testing.T) {
	data := fuzzCorpus()
	for i, seed := range fuzzSeeds(t) {
		idx, err := persist.Load[[]float32](bytes.NewReader(seed), space.L2{}, data)
		if err != nil {
			t.Fatalf("seed %d does not load: %v", i, err)
		}
		if got := idx.Search(data[1], 3); len(got) == 0 {
			t.Errorf("seed %d (%s) returned no results", i, idx.Name())
		}
	}
}
