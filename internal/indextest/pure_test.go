package indextest

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/persist"
	"repro/internal/space"
)

// TestBuildsArePure builds every kind of the dense, DNA and KL matrices at
// GOMAXPROCS 1 and 4 and requires byte-identical saved files: a build is a
// pure function of (data, options, seed), however many cores run it. It
// changes GOMAXPROCS, so it must not run in parallel with other tests.
func TestBuildsArePure(t *testing.T) {
	dense, _ := denseCorpus()
	for _, kc := range denseKinds(space.L2{}, dense) {
		t.Run("dense/"+kc.kind, func(t *testing.T) { buildIsPure(t, kc.build) })
	}
	dna, _ := dnaCorpus()
	for _, kc := range genericKinds[[]byte](space.NormalizedLevenshtein{}, dna) {
		t.Run("dna/"+kc.kind, func(t *testing.T) { buildIsPure(t, kc.build) })
	}
	histo, _ := histoCorpus()
	for _, kc := range genericKinds[space.Histogram](space.KLDivergence{}, histo) {
		t.Run("kl/"+kc.kind, func(t *testing.T) { buildIsPure(t, kc.build) })
	}
}

// buildIsPure saves the index build makes at GOMAXPROCS 1 and at 4 and
// fails unless the two files are byte-identical.
func buildIsPure[T any](t *testing.T, build Builder[T]) {
	var want []byte
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		idx, err := build()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		var blob bytes.Buffer
		if err := persist.Save(&blob, idx); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = blob.Bytes()
		} else if !bytes.Equal(blob.Bytes(), want) {
			t.Errorf("built at GOMAXPROCS=%d, saves different bytes than at 1", procs)
		}
	}
}
