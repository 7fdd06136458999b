package indextest

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/space"
)

// TestFastArmIdentity builds the dense kind matrix twice: once over
// space.L2{}, whose exact type sends space.Many and space.Closest down the
// pair kernel, and once over a space.Counter around it, which Many's
// exact-type rule sends down the per-pair Distance loop. Every kind must
// answer alike on both (ids and distance bits, at k 1 and 10), save the same
// bytes and report the same build-distance count; every answer's distance
// must be the one Distance returns, which also holds MPLSH (L2 only, built
// the same on both sides) to the loop. Every kind measuring through the
// Counter must trace exactly what it counted, as pivot plus refine
// distances; MPLSH measures through its own space.L2{}, so the Counter reads
// nothing there.
func TestFastArmIdentity(t *testing.T) {
	db, queries := denseCorpus()
	counter := space.NewCounter[[]float32](space.L2{})
	fast, slow := denseKinds(space.L2{}, db), denseKinds(counter, db)
	for i, fk := range fast {
		t.Run(fk.kind, func(t *testing.T) {
			a, err := fk.build()
			if err != nil {
				t.Fatal(err)
			}
			b, err := slow[i].build()
			if err != nil {
				t.Fatal(err)
			}
			if sa, ok := a.(index.Sized); ok {
				if got, want := b.(index.Sized).Stats().BuildDistances, sa.Stats().BuildDistances; got != want {
					t.Errorf("BuildDistances = %d through the Counter, %d through L2", got, want)
				}
			}
			var ba, bb bytes.Buffer
			errA, errB := persist.Save(&ba, a), persist.Save(&bb, b)
			switch {
			case errors.Is(errA, codec.ErrNotPersistable) && errors.Is(errB, codec.ErrNotPersistable):
			case errA != nil || errB != nil:
				t.Fatalf("Save: %v / %v", errA, errB)
			case !bytes.Equal(ba.Bytes(), bb.Bytes()):
				t.Errorf("saved %d bytes through the Counter that differ from the %d through L2", bb.Len(), ba.Len())
			}
			for _, k := range []int{1, 10} {
				for qi, q := range queries {
					var tr obs.QueryTrace
					counter.Reset()
					got := b.SearchAppend(nil, q, index.Options{K: k, Trace: &tr})
					if traced := tr.PivotDistances + tr.RefineDistances; fk.kind != "mplsh" && counter.Count() != traced {
						t.Errorf("query %d k=%d: the Counter counted %d distances, the trace %d", qi, k, counter.Count(), traced)
					}
					want := a.Search(q, k)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("query %d k=%d: %v through the Counter, %v through L2", qi, k, got, want)
					}
					for _, nb := range want {
						if d := (space.L2{}).Distance(db[nb.ID], q); math.Float64bits(d) != math.Float64bits(nb.Dist) {
							t.Errorf("query %d k=%d: id %d answered at %v, Distance is %v", qi, k, nb.ID, nb.Dist, d)
						}
					}
					if t.Failed() {
						t.FailNow()
					}
				}
			}
		})
	}
}
