package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the read side of the exposition format: a strict parser for
// the Prometheus text format 0.0.4 subset WriteText emits, used by permctl
// (quantiles from a live /metrics scrape) and scripts/metricscheck
// (grammar + required-family validation in the smoke scripts). Strictness
// is the point — metricscheck exists to catch a malformed exposition
// before a real scraper does — so unknown line shapes are errors, not
// skips.

// Sample is one parsed sample line.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// TextMetrics is a parsed exposition page.
type TextMetrics struct {
	// Types maps family name -> declared TYPE (counter, gauge, histogram,
	// summary, untyped).
	Types map[string]string
	// Help maps family name -> HELP text.
	Help map[string]string
	// Samples in page order.
	Samples []Sample
}

var validTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true, "summary": true, "untyped": true,
}

// ParseText parses a Prometheus text-format page. It validates line
// grammar (metric/label name charset, quoting, value syntax) and TYPE
// declarations, returning the first error with its line number.
func ParseText(r io.Reader) (*TextMetrics, error) {
	tm := &TextMetrics{Types: map[string]string{}, Help: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := tm.parseComment(line); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineno, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineno, err)
		}
		tm.Samples = append(tm.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tm, nil
}

// parseComment handles "# HELP name text" and "# TYPE name kind"; other
// comments are legal and ignored.
func (tm *TextMetrics) parseComment(line string) error {
	rest := strings.TrimPrefix(line, "#")
	rest = strings.TrimLeft(rest, " ")
	switch {
	case strings.HasPrefix(rest, "HELP "):
		parts := strings.SplitN(rest[len("HELP "):], " ", 2)
		if !validMetricName(parts[0]) {
			return fmt.Errorf("HELP for invalid metric name %q", parts[0])
		}
		if len(parts) == 2 {
			tm.Help[parts[0]] = parts[1]
		} else {
			tm.Help[parts[0]] = ""
		}
	case strings.HasPrefix(rest, "TYPE "):
		parts := strings.Fields(rest[len("TYPE "):])
		if len(parts) != 2 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		if !validMetricName(parts[0]) {
			return fmt.Errorf("TYPE for invalid metric name %q", parts[0])
		}
		if !validTypes[parts[1]] {
			return fmt.Errorf("unknown metric type %q for %s", parts[1], parts[0])
		}
		if prev, ok := tm.Types[parts[0]]; ok && prev != parts[1] {
			return fmt.Errorf("conflicting TYPE for %s: %s then %s", parts[0], prev, parts[1])
		}
		tm.Types[parts[0]] = parts[1]
	}
	return nil
}

// parseSample parses `name{label="v",...} value` (labels optional).
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("malformed sample line %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end, err := parseLabels(rest, s.Labels)
		if err != nil {
			return s, fmt.Errorf("sample %s: %w", s.Name, err)
		}
		rest = rest[end:]
	}
	val := strings.TrimSpace(rest)
	if val == "" {
		return s, fmt.Errorf("sample %s: missing value", s.Name)
	}
	// A timestamp field after the value is format-legal; WriteText never
	// emits one, and rejecting it keeps metricscheck aligned with what the
	// fleet actually serves.
	if strings.ContainsAny(val, " \t") {
		return s, fmt.Errorf("sample %s: unexpected trailing fields in %q", s.Name, val)
	}
	v, err := parseValue(val)
	if err != nil {
		return s, fmt.Errorf("sample %s: bad value %q", s.Name, val)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a {k="v",...} block starting at s[0]=='{', filling
// dst and returning the index just past the closing '}'.
func parseLabels(s string, dst map[string]string) (int, error) {
	i := 1
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		start := i
		for i < len(s) && isLabelChar(s[i], i == start) {
			i++
		}
		if i == start {
			return 0, fmt.Errorf("malformed label block %q", s)
		}
		name := s[start:i]
		if i+1 >= len(s) || s[i] != '=' || s[i+1] != '"' {
			return 0, fmt.Errorf("label %s: expected =\"...\"", name)
		}
		i += 2
		var b strings.Builder
		for {
			if i >= len(s) {
				return 0, fmt.Errorf("label %s: unterminated value", name)
			}
			c := s[i]
			if c == '"' {
				i++
				break
			}
			if c == '\\' {
				if i+1 >= len(s) {
					return 0, fmt.Errorf("label %s: dangling escape", name)
				}
				switch s[i+1] {
				case '\\':
					b.WriteByte('\\')
				case '"':
					b.WriteByte('"')
				case 'n':
					b.WriteByte('\n')
				default:
					return 0, fmt.Errorf("label %s: bad escape \\%c", name, s[i+1])
				}
				i += 2
				continue
			}
			b.WriteByte(c)
			i++
		}
		if _, dup := dst[name]; dup {
			return 0, fmt.Errorf("duplicate label %s", name)
		}
		dst[name] = b.String()
	}
}

// parseValue accepts the exposition value syntax: Go float syntax plus
// +Inf/-Inf/NaN.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

func isLabelChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

// Quantile computes an upper-bound q-quantile from the parsed _bucket
// samples of histogram family fam, summing across every child whose
// labels include all pairs in match (pass nil to aggregate the whole
// family). Returns (value-in-exposition-units, observation count, ok);
// ok is false when no matching buckets exist or the +Inf bucket is
// missing. Used by permctl status for p50/p95/p99 over scraped
// /metrics pages.
func (tm *TextMetrics) Quantile(fam string, match map[string]string, q float64) (float64, int64, bool) {
	byLE := map[float64]float64{}
	for i := range tm.Samples {
		s := &tm.Samples[i]
		if s.Name != fam+"_bucket" {
			continue
		}
		ok := true
		for k, v := range match {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		le, err := parseValue(s.Labels["le"])
		if err != nil {
			continue
		}
		byLE[le] += s.Value
	}
	infCount, haveInf := byLE[math.Inf(1)]
	if !haveInf || infCount <= 0 {
		return 0, 0, haveInf
	}
	les := make([]float64, 0, len(byLE))
	for le := range byLE {
		les = append(les, le)
	}
	sort.Float64s(les)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := math.Ceil(q * infCount)
	if rank < 1 {
		rank = 1
	}
	for _, le := range les {
		if byLE[le] >= rank {
			return le, int64(infCount), true
		}
	}
	return les[len(les)-1], int64(infCount), true
}
