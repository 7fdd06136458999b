package index

import (
	"cmp"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// NamedParams is a set of named query-time parameters ("method params"): the
// knobs that trace a method's recall/efficiency curve without rebuilding the
// index. The textual form — "gamma=0.05", "att=2,ef=20" — is exactly the
// variant label the Figure 4 sweeps print, so a row of experiment output can
// be pasted verbatim into a serving request.
//
// Recognized keys per index kind:
//
//	brute-force-filt, brute-force-filt-bin, brute-force-filt-quant,
//	distvec-filt, pp-index, mi-file, omedrank, perm-vptree:  gamma
//	napp:       t (alias minshared)
//	vptree:     alpha (sets both pruning stretch factors),
//	            alphaleft, alpharight (one side each)
//	sw-graph, nndescent-graph:  att (alias attempts), ef
//	mplsh:      T (alias probes)
//
// All other kinds have no query-time knobs.
type NamedParams map[string]float64

// ParseParams parses a comma-separated key=value list such as
// "gamma=0.05" or "att=2,ef=20". Values must be finite; keys are not
// validated here — only Resolve knows which keys an index kind accepts.
func ParseParams(s string) (NamedParams, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return NamedParams{}, nil
	}
	out := NamedParams{}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(part, "=")
		k = strings.TrimSpace(k)
		if !ok || k == "" {
			return nil, fmt.Errorf("index: malformed param %q (want key=value)", part)
		}
		val, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
		if err != nil {
			return nil, fmt.Errorf("index: param %q: %v", part, err)
		}
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return nil, fmt.Errorf("index: param %q is not finite", part)
		}
		if _, dup := out[k]; dup {
			return nil, fmt.Errorf("index: param %q given twice", k)
		}
		out[k] = val
	}
	return out, nil
}

// knob is one query-time parameter key of an index kind.
type knob struct {
	// groups names the Params state the knob writes. Two keys of one
	// request whose groups intersect would resolve in map-iteration order —
	// i.e. nondeterministically — so Resolve rejects them. Aliases share a
	// group; vptree's composite "alpha" spans both side groups.
	groups []string
	// integer marks knobs that truncate to int; non-integral values and
	// values beyond math.MaxInt32 are rejected rather than silently floored
	// or wrapped.
	integer bool
	// allowZero admits 0 (only mplsh probes); every knob rejects negatives.
	// A zero Params field means "the index's default", so an
	// out-of-range value must never reach it: a serving request would report
	// success while searching under the old setting.
	allowZero bool
	set       func(p *Params, v float64)
}

var (
	gammaKnobs = map[string]knob{"gamma": {
		groups: []string{"gamma"},
		set:    func(p *Params, v float64) { p.Gamma = v },
	}}
	minSharedKnob = knob{
		groups:  []string{"t"},
		integer: true,
		set:     func(p *Params, v float64) { p.MinShared = int(v) },
	}
	attemptsKnob = knob{
		groups:  []string{"att"},
		integer: true,
		set:     func(p *Params, v float64) { p.InitAttempts = int(v) },
	}
	graphKnobs = map[string]knob{"att": attemptsKnob, "attempts": attemptsKnob, "ef": {
		groups:  []string{"ef"},
		integer: true,
		set:     func(p *Params, v float64) { p.EfSearch = int(v) },
	}}
	probesKnob = knob{
		groups:    []string{"probes"},
		integer:   true,
		allowZero: true,
		// Params spells "no probes" as a negative count.
		set: func(p *Params, v float64) { p.Probes = cmp.Or(int(v), -1) },
	}
)

// kindKnobs maps an index kind (its Name) to the canonical and alias keys
// it accepts. Kinds absent here have no query-time parameters.
var kindKnobs = map[string]map[string]knob{
	"brute-force-filt":       gammaKnobs,
	"brute-force-filt-bin":   gammaKnobs,
	"brute-force-filt-quant": gammaKnobs,
	"distvec-filt":           gammaKnobs,
	"pp-index":               gammaKnobs,
	"mi-file":                gammaKnobs,
	"omedrank":               gammaKnobs,
	"perm-vptree":            gammaKnobs,
	"napp":                   {"t": minSharedKnob, "minshared": minSharedKnob},
	"vptree": {
		"alpha": {
			groups: []string{"alphaleft", "alpharight"},
			set:    func(p *Params, v float64) { p.AlphaLeft, p.AlphaRight = v, v },
		},
		"alphaleft": {
			groups: []string{"alphaleft"},
			set:    func(p *Params, v float64) { p.AlphaLeft = v },
		},
		"alpharight": {
			groups: []string{"alpharight"},
			set:    func(p *Params, v float64) { p.AlphaRight = v },
		},
	},
	"sw-graph":        graphKnobs,
	"nndescent-graph": graphKnobs,
	"mplsh":           {"T": probesKnob, "probes": probesKnob},
}

// Resolve validates p against the keys index kind accepts and returns the
// typed per-query params it names. A key the kind does not recognize, a
// non-finite, out-of-range or non-integral value, or two keys writing the
// same underlying knob (an alias pair, or "alpha" with one of its sides)
// all fail. Resolve is pure: the value it returns rides each query
// (Options.Params); no index is touched.
func Resolve(kind string, p NamedParams) (Params, error) {
	var out Params
	knobs := kindKnobs[kind]
	claimed := map[string]string{} // group -> request key that writes it
	for k, val := range p {
		kb, ok := knobs[k]
		if !ok {
			return Params{}, fmt.Errorf("index: index %q has no query-time param %q", kind, k)
		}
		for _, g := range kb.groups {
			if other, dup := claimed[g]; dup {
				return Params{}, fmt.Errorf("index: params %q and %q set the same knob", other, k)
			}
			claimed[g] = k
		}
		if math.IsNaN(val) || math.IsInf(val, 0) || val < 0 || (val == 0 && !kb.allowZero) {
			return Params{}, fmt.Errorf("index: param %s=%g out of range", k, val)
		}
		if kb.integer && (val != math.Trunc(val) || val > math.MaxInt32) {
			return Params{}, fmt.Errorf("index: param %s=%g must be an integer no larger than %d", k, val, math.MaxInt32)
		}
		kb.set(&out, val)
	}
	return out, nil
}
