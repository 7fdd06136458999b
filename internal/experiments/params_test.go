package experiments

import (
	"math"
	"testing"

	"repro/internal/index"
)

func TestParseParams(t *testing.T) {
	p, err := ParseParams("att=2,ef=20")
	if err != nil {
		t.Fatal(err)
	}
	if p["att"] != 2 || p["ef"] != 20 || len(p) != 2 {
		t.Fatalf("parsed %v", p)
	}
	if p, err = ParseParams("  "); err != nil || len(p) != 0 {
		t.Fatalf("blank input: %v, %v", p, err)
	}
	for _, bad := range []string{"gamma", "=1", "gamma=x", "a=1,a=2", "a=1,,b=2", "gamma=NaN", "gamma=+Inf", "t=-inf"} {
		if _, err := ParseParams(bad); err == nil {
			t.Errorf("ParseParams(%q) succeeded", bad)
		}
	}
	if got := (Params{"ef": 20, "att": 2}).String(); got != "att=2,ef=20" {
		t.Fatalf("String() = %q", got)
	}
}

// TestResolveTypedValues: every kind's keys and aliases land in the
// index.Params field the kind's search reads, and nowhere else.
func TestResolveTypedValues(t *testing.T) {
	for _, tc := range []struct {
		kind string
		in   Params
		want index.Params
	}{
		{"brute-force-filt", Params{"gamma": 0.05}, index.Params{Gamma: 0.05}},
		{"brute-force-filt-bin", Params{"gamma": 0.2}, index.Params{Gamma: 0.2}},
		{"brute-force-filt-quant", Params{"gamma": 1}, index.Params{Gamma: 1}},
		{"distvec-filt", Params{"gamma": 0.5}, index.Params{Gamma: 0.5}},
		{"pp-index", Params{"gamma": 0.05}, index.Params{Gamma: 0.05}},
		{"mi-file", Params{"gamma": 0.05}, index.Params{Gamma: 0.05}},
		{"omedrank", Params{"gamma": 0.05}, index.Params{Gamma: 0.05}},
		{"perm-vptree", Params{"gamma": 0.05}, index.Params{Gamma: 0.05}},
		{"napp", Params{"t": 3}, index.Params{MinShared: 3}},
		{"napp", Params{"minshared": 2}, index.Params{MinShared: 2}},
		{"vptree", Params{"alpha": 2}, index.Params{AlphaLeft: 2, AlphaRight: 2}},
		// The sides alone are two independent knobs.
		{"vptree", Params{"alphaleft": 3, "alpharight": 4}, index.Params{AlphaLeft: 3, AlphaRight: 4}},
		{"vptree", Params{"alpharight": 1.5}, index.Params{AlphaRight: 1.5}},
		{"sw-graph", Params{"att": 5, "ef": 33}, index.Params{InitAttempts: 5, EfSearch: 33}},
		{"nndescent-graph", Params{"attempts": 2}, index.Params{InitAttempts: 2}},
		{"mplsh", Params{"T": 30}, index.Params{Probes: 30}},
		// Zero probes is a real setting; index.Params spells it negative
		// because its zero means "the index's default".
		{"mplsh", Params{"probes": 0}, index.Params{Probes: -1}},
		{"napp", Params{"t": math.MaxInt32}, index.Params{MinShared: math.MaxInt32}},
		{"seqscan", nil, index.Params{}},
	} {
		got, err := Resolve(tc.kind, tc.in)
		if err != nil {
			t.Errorf("Resolve(%s, %v): %v", tc.kind, tc.in, err)
		} else if got != tc.want {
			t.Errorf("Resolve(%s, %v) = %+v, want %+v", tc.kind, tc.in, got, tc.want)
		}
	}
}

// TestResolveRejectsConflictsAndBadValues: unknown keys, alias pairs writing
// one knob, non-finite, out-of-range, non-integral and int-overflowing
// values all fail — a zero index.Params field means "the index's default",
// so a serving request must never get a 200 for a setting that would
// silently search under the old one.
func TestResolveRejectsConflictsAndBadValues(t *testing.T) {
	for _, tc := range []struct {
		name, kind string
		in         Params
	}{
		{"alias pair", "sw-graph", Params{"att": 2, "attempts": 8}},
		{"negative ef", "sw-graph", Params{"ef": -4}},
		{"zero att", "sw-graph", Params{"att": 0}},
		{"fractional ef", "sw-graph", Params{"ef": 2.5}},
		{"mixed good/bad", "sw-graph", Params{"att": 2, "ef": -1}},
		{"zero gamma", "brute-force-filt", Params{"gamma": 0}},
		{"NaN gamma", "brute-force-filt", Params{"gamma": math.NaN()}},
		{"+Inf gamma", "brute-force-filt", Params{"gamma": math.Inf(1)}},
		{"-Inf gamma", "brute-force-filt", Params{"gamma": math.Inf(-1)}},
		{"huge t", "napp", Params{"t": 1e300}},
		{"+Inf t", "napp", Params{"t": math.Inf(1)}},
		{"t beyond int32", "napp", Params{"t": 1 << 40}},
		{"NaN T", "mplsh", Params{"T": math.NaN()}},
		// Both alpha and one of its sides in a single request is ambiguous.
		{"alpha with a side", "vptree", Params{"alpha": 2, "alpharight": 3}},
		{"unknown key", "brute-force-filt", Params{"gamma": 0.5, "ef": 7}},
		// Kinds without knobs reject any param.
		{"knobless kind", "seqscan", Params{"gamma": 0.5}},
		{"unknown kind", "no-such-index", Params{"gamma": 0.5}},
	} {
		if got, err := Resolve(tc.kind, tc.in); err == nil {
			t.Errorf("%s: Resolve(%s, %v) = %+v, want an error", tc.name, tc.kind, tc.in, got)
		} else if got != (index.Params{}) {
			t.Errorf("%s: failed Resolve leaked %+v", tc.name, got)
		}
	}
}
