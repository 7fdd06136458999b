package core

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/space"
)

// screenCorpora are the corpora the composition screen must be invisible on:
// dna-direct's reads (seed 1), seed 7's, where the bound rules out little,
// reads averaging 80 bytes, whose queries past 64 bytes take the EditDistance
// fallback, and random bytes of every length up to 90, empty included.
func screenCorpora(n int) map[string][][]byte {
	r := rand.New(rand.NewSource(41))
	random := make([][]byte, n)
	for i := range random {
		random[i] = make([]byte, r.Intn(91))
		r.Read(random[i])
	}
	return map[string][][]byte{
		"dna-s1":    dataset.DNA(1, n, dataset.DNAOptions{}),
		"dna-s7":    dataset.DNA(7, n, dataset.DNAOptions{}),
		"dna-len80": dataset.DNA(1, n, dataset.DNAOptions{MeanLen: 80, SDLen: 10}),
		"random":    random,
	}
}

// saved is idx's index file.
func saved(t *testing.T, idx interface{ Save(io.Writer) error }) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkSameAnswers asserts that screened and measured answer every query
// alike at every k and query params, and returns the distances each traced.
func checkSameAnswers(t *testing.T, screened, measured index.Index[[]byte], queries [][]byte, params []index.Params) (sc, ms int64) {
	t.Helper()
	var trS, trM obs.QueryTrace
	for _, p := range params {
		for _, k := range []int{1, 10, 50} {
			for i, q := range queries {
				got := screened.SearchAppend(nil, q, index.Options{K: k, Params: p, Trace: &trS})
				want := measured.SearchAppend(nil, q, index.Options{K: k, Params: p, Trace: &trM})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("params %+v k=%d query %d:\nscreened %v\nmeasured %v", p, k, i, got, want)
				}
			}
		}
	}
	return trS.PivotDistances + trS.RefineDistances, trM.PivotDistances + trM.RefineDistances
}

// TestEditScreenIdentity builds NAPP, the MI-file and the PP-index over each
// Levenshtein and, with the same seed, over a space.Counter of it, which gets
// no screen: the built structures and index files must be equal and every
// search must answer alike, for NAPP at t = 1, 4 and 8. Over all corpora the
// screened indexes must also measure fewer distances, or the test would
// compare the measured path with itself.
func TestEditScreenIdentity(t *testing.T) {
	n, nq := 1200, 12
	if testing.Short() {
		n, nq = 500, 6
	}
	var sc, ms int64
	for name, all := range screenCorpora(n + nq) {
		db, queries := all[:n], all[n:]
		for _, sp := range []space.Space[[]byte]{space.NormalizedLevenshtein{}, space.Levenshtein{}} {
			t.Run(fmt.Sprintf("%s/%s", name, sp.Name()), func(t *testing.T) {
				counter := space.NewCounter(sp)
				add := func(s, m int64) { sc, ms = sc+s, ms+m }

				nappOpts := NAPPOptions{NumPivots: 128, NumPivotIndex: 16, NumPivotSearch: 16, MinShared: 2, Seed: 5}
				na, err := NewNAPP(sp, db, nappOpts)
				if err != nil {
					t.Fatal(err)
				}
				naM, err := NewNAPP[[]byte](counter, db, nappOpts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(na.bitmaps, naM.bitmaps) || !bytes.Equal(saved(t, na), saved(t, naM)) {
					t.Fatal("napp: screened build differs from measured")
				}
				add(checkSameAnswers(t, na, naM, queries, []index.Params{{MinShared: 1}, {MinShared: 4}, {MinShared: 8}}))

				mf, err := NewMIFile(sp, db, MIFileOptions{NumPivots: 128, NumPivotIndex: 16, NumPivotSearch: 8, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				mfM, err := NewMIFile[[]byte](counter, db, MIFileOptions{NumPivots: 128, NumPivotIndex: 16, NumPivotSearch: 8, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(mf.postings, mfM.postings) || !bytes.Equal(saved(t, mf), saved(t, mfM)) {
					t.Fatal("mi-file: screened build differs from measured")
				}
				add(checkSameAnswers(t, mf, mfM, queries, []index.Params{{}}))

				pp, err := NewPPIndex(sp, db, PPIndexOptions{NumPivots: 32, PrefixLen: 4, Copies: 2, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				ppM, err := NewPPIndex[[]byte](counter, db, PPIndexOptions{NumPivots: 32, PrefixLen: 4, Copies: 2, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(saved(t, pp), saved(t, ppM)) {
					t.Fatal("pp-index: screened build differs from measured")
				}
				add(checkSameAnswers(t, pp, ppM, queries, []index.Params{{}}))
			})
		}
	}
	if sc >= ms {
		t.Errorf("screened indexes traced %d distances, measured ones %d: the screen skipped nothing", sc, ms)
	}
}

// TestEditScreenPrunes pins what the screen buys at dna-direct's operating
// point (dna seed 1, n = 4000, m = 512, mi = ms = 32, t = 8): a query's pivot
// selection measures at most 400 of the 512 pivots and its refine at most 70%
// of the candidates, so an index that silently lost the screen fails here.
func TestEditScreenPrunes(t *testing.T) {
	const n, nq = 4000, 32
	all := dataset.DNA(1, n+nq, dataset.DNAOptions{})
	na, err := NewNAPP[[]byte](space.NormalizedLevenshtein{}, all[:n], NAPPOptions{
		NumPivots: 512, NumPivotIndex: 32, NumPivotSearch: 32, MinShared: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tr obs.QueryTrace
	for _, q := range all[n:] {
		na.SearchAppend(nil, q, index.Options{K: 10, Trace: &tr})
	}
	t.Logf("per query: %.1f pivot distances, %.1f refines of %.1f candidates",
		float64(tr.PivotDistances)/nq, float64(tr.RefineDistances)/nq, float64(tr.FilterCandidates)/nq)
	if per := float64(tr.PivotDistances) / nq; per > 400 {
		t.Errorf("pivot selection measured %.1f of 512 pivots per query, want at most 400", per)
	}
	if share := float64(tr.RefineDistances) / float64(tr.FilterCandidates); share > 0.7 {
		t.Errorf("refine measured %d of %d candidates (%.2f), want at most 0.70", tr.RefineDistances, tr.FilterCandidates, share)
	}
}
