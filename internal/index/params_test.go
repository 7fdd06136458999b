package index

import (
	"maps"
	"math"
	"testing"
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
	if got := (NamedParams{"ef": 20, "att": 2}).String(); got != "att=2,ef=20" {
		t.Fatalf("String() = %q", got)
	}
}

// TestResolveTypedValues: every kind's keys and aliases land in the
// Params field the kind's search reads, and nowhere else.
func TestResolveTypedValues(t *testing.T) {
	for _, tc := range []struct {
		kind string
		in   NamedParams
		want Params
	}{
		{"brute-force-filt", NamedParams{"gamma": 0.05}, Params{Gamma: 0.05}},
		{"brute-force-filt-bin", NamedParams{"gamma": 0.2}, Params{Gamma: 0.2}},
		{"brute-force-filt-quant", NamedParams{"gamma": 1}, Params{Gamma: 1}},
		{"distvec-filt", NamedParams{"gamma": 0.5}, Params{Gamma: 0.5}},
		{"pp-index", NamedParams{"gamma": 0.05}, Params{Gamma: 0.05}},
		{"mi-file", NamedParams{"gamma": 0.05}, Params{Gamma: 0.05}},
		{"omedrank", NamedParams{"gamma": 0.05}, Params{Gamma: 0.05}},
		{"perm-vptree", NamedParams{"gamma": 0.05}, Params{Gamma: 0.05}},
		{"napp", NamedParams{"t": 3}, Params{MinShared: 3}},
		{"napp", NamedParams{"minshared": 2}, Params{MinShared: 2}},
		{"vptree", NamedParams{"alpha": 2}, Params{AlphaLeft: 2, AlphaRight: 2}},
		// The sides alone are two independent knobs.
		{"vptree", NamedParams{"alphaleft": 3, "alpharight": 4}, Params{AlphaLeft: 3, AlphaRight: 4}},
		{"vptree", NamedParams{"alpharight": 1.5}, Params{AlphaRight: 1.5}},
		{"sw-graph", NamedParams{"att": 5, "ef": 33}, Params{InitAttempts: 5, EfSearch: 33}},
		{"nndescent-graph", NamedParams{"attempts": 2}, Params{InitAttempts: 2}},
		{"mplsh", NamedParams{"T": 30}, Params{Probes: 30}},
		// Zero probes is a real setting; Params spells it negative
		// because its zero means "the index's default".
		{"mplsh", NamedParams{"probes": 0}, Params{Probes: -1}},
		{"napp", NamedParams{"t": math.MaxInt32}, Params{MinShared: math.MaxInt32}},
		{"seqscan", nil, Params{}},
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
// values all fail — a zero Params field means "the index's default",
// so a serving request must never get a 200 for a setting that would
// silently search under the old one.
func TestResolveRejectsConflictsAndBadValues(t *testing.T) {
	for _, tc := range []struct {
		name, kind string
		in         NamedParams
	}{
		{"alias pair", "sw-graph", NamedParams{"att": 2, "attempts": 8}},
		{"negative ef", "sw-graph", NamedParams{"ef": -4}},
		{"zero att", "sw-graph", NamedParams{"att": 0}},
		{"fractional ef", "sw-graph", NamedParams{"ef": 2.5}},
		{"mixed good/bad", "sw-graph", NamedParams{"att": 2, "ef": -1}},
		{"zero gamma", "brute-force-filt", NamedParams{"gamma": 0}},
		{"NaN gamma", "brute-force-filt", NamedParams{"gamma": math.NaN()}},
		{"+Inf gamma", "brute-force-filt", NamedParams{"gamma": math.Inf(1)}},
		{"-Inf gamma", "brute-force-filt", NamedParams{"gamma": math.Inf(-1)}},
		{"huge t", "napp", NamedParams{"t": 1e300}},
		{"+Inf t", "napp", NamedParams{"t": math.Inf(1)}},
		{"t beyond int32", "napp", NamedParams{"t": 1 << 40}},
		{"NaN T", "mplsh", NamedParams{"T": math.NaN()}},
		// Both alpha and one of its sides in a single request is ambiguous.
		{"alpha with a side", "vptree", NamedParams{"alpha": 2, "alpharight": 3}},
		{"unknown key", "brute-force-filt", NamedParams{"gamma": 0.5, "ef": 7}},
		// Kinds without knobs reject any param.
		{"knobless kind", "seqscan", NamedParams{"gamma": 0.5}},
		{"unknown kind", "no-such-index", NamedParams{"gamma": 0.5}},
	} {
		if got, err := Resolve(tc.kind, tc.in); err == nil {
			t.Errorf("%s: Resolve(%s, %v) = %+v, want an error", tc.name, tc.kind, tc.in, got)
		} else if got != (Params{}) {
			t.Errorf("%s: failed Resolve leaked %+v", tc.name, got)
		}
	}
}

// FuzzParseParams: ParseParams never panics on arbitrary text; what it
// accepts has non-empty keys and finite values and parses back from its own
// String to an equal map, and Resolve, under every kind with knobs and under
// an unknown one, answers the round-tripped map as it answered the original.
func FuzzParseParams(f *testing.F) {
	for _, s := range []string{
		// TestParseParams's inputs.
		"att=2,ef=20", "  ", "gamma", "=1", "gamma=x", "a=1,a=2", "a=1,,b=2",
		"gamma=NaN", "gamma=+Inf", "t=-inf",
		// Out of range, non-integral, zero, conflicting, blank-keyed, hex and
		// just-past-int32 values.
		"gamma=1e400", "t=2.5", "T=0", "alpha=2,alphaleft=1", " =1", "t=0x1p3", "t=2147483648",
	} {
		f.Add(s)
	}
	kinds := []string{"no-such-index"}
	for kind := range kindKnobs {
		kinds = append(kinds, kind)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseParams(s)
		if err != nil {
			return
		}
		for k, v := range p {
			if k == "" || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("ParseParams(%q) accepted %q=%v", s, k, v)
			}
		}
		back, err := ParseParams(p.String())
		if err != nil || !maps.Equal(p, back) {
			t.Fatalf("ParseParams(%q) = %v, but its String %q parses to %v (err %v)", s, p, p.String(), back, err)
		}
		for _, kind := range kinds {
			want, werr := Resolve(kind, p)
			got, gerr := Resolve(kind, back)
			if got != want || (gerr == nil) != (werr == nil) {
				t.Fatalf("Resolve(%s) of %q: %+v (err %v), round-tripped %+v (err %v)", kind, s, want, werr, got, gerr)
			}
		}
	})
}
