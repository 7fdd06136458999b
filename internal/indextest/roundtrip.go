package indextest

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/space"
)

// Roundtrip runs the persistence property suite: Save then Load must yield
// an index that is behaviorally indistinguishable from the original.
//
//   - Re-saving the loaded index reproduces the original bytes exactly
//     (serialization is canonical: map-backed sections are written in
//     sorted order, so equal indexes have equal files).
//   - Every search over every query returns identical ids and distances on
//     both instances.
//   - Stats survive: reported footprint stays within tolerance and the
//     build-distance counter is preserved exactly.
func Roundtrip[T any](t *testing.T, sp space.Space[T], data []T, queries []T, build Builder[T]) {
	t.Helper()
	orig, err := build()
	if err != nil {
		t.Fatal(err)
	}

	var blob bytes.Buffer
	if err := persist.Save(&blob, orig); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := persist.Load(bytes.NewReader(blob.Bytes()), sp, data)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	if got, want := loaded.Name(), orig.Name(); got != want {
		t.Errorf("loaded index is a %q, saved a %q", got, want)
	}

	t.Run("resave-is-identical", func(t *testing.T) {
		var again bytes.Buffer
		if err := persist.Save(&again, loaded); err != nil {
			t.Fatalf("re-Save: %v", err)
		}
		if !bytes.Equal(blob.Bytes(), again.Bytes()) {
			t.Errorf("re-saving the loaded index produced %d bytes != original %d bytes",
				again.Len(), blob.Len())
		}
	})

	t.Run("searches-identical", func(t *testing.T) {
		for _, k := range []int{1, 5, len(data) + 3} {
			for qi, q := range queries {
				want := orig.Search(q, k)
				got := loaded.Search(q, k)
				diffResults(t, want, got, fmt.Sprintf("query %d k=%d", qi, k))
			}
		}
	})

	t.Run("stats-survive", func(t *testing.T) {
		os, haveOrig := orig.(index.Sized)
		ls, haveLoaded := loaded.(index.Sized)
		if haveOrig != haveLoaded {
			t.Fatalf("Sized mismatch: original %v, loaded %v", haveOrig, haveLoaded)
		}
		if !haveOrig {
			return
		}
		a, b := os.Stats(), ls.Stats()
		if b.BuildDistances != a.BuildDistances {
			t.Errorf("BuildDistances = %d after roundtrip, want %d", b.BuildDistances, a.BuildDistances)
		}
		// Bytes is an estimate over the same structure, so it should agree
		// closely; allow 10% slack for incidental representation
		// differences (slice capacities are not part of the format).
		if diff := b.Bytes - a.Bytes; diff > a.Bytes/10 || diff < -a.Bytes/10 {
			t.Errorf("Stats().Bytes = %d after roundtrip, want within 10%% of %d", b.Bytes, a.Bytes)
		}
	})
}

// RoundtripRejectsCorrupt asserts Load fails cleanly (codec.ErrCorrupt, no
// panic) on truncations and single-byte corruptions of a valid blob. The
// exhaustive version of this property lives in the codec fuzz target; this
// deterministic slice of it runs on every test invocation.
func RoundtripRejectsCorrupt[T any](t *testing.T, sp space.Space[T], data []T, build Builder[T]) {
	t.Helper()
	idx, err := build()
	if err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if err := persist.Save(&blob, idx); err != nil {
		t.Fatalf("Save: %v", err)
	}
	raw := blob.Bytes()

	for _, cut := range []int{0, 1, 4, 7, len(raw) / 2, len(raw) - 1} {
		if cut >= len(raw) {
			continue
		}
		if _, err := persist.Load(bytes.NewReader(raw[:cut]), sp, data); err == nil {
			t.Errorf("Load accepted a blob truncated to %d of %d bytes", cut, len(raw))
		}
	}
	for _, pos := range []int{0, 5, len(raw) / 3, len(raw) / 2, len(raw) - 2} {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		if _, err := persist.Load(bytes.NewReader(mut), sp, data); err == nil {
			t.Errorf("Load accepted a blob with byte %d flipped", pos)
		} else if !errors.Is(err, codec.ErrCorrupt) {
			// Header-field mutations may surface as mismatch errors
			// rather than ErrCorrupt only if they keep the checksum
			// valid, which a single bit flip cannot.
			t.Errorf("corrupt blob at byte %d: got %v, want ErrCorrupt", pos, err)
		}
	}
}
