package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// series is one sample line of a Prometheus text exposition.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// exposition is a parsed /metrics page. permbench reads only counters and
// the _sum/_count lines of histograms: the family names are the daemons'
// public surface, bucket layouts are not.
type exposition []series

// parseExposition reads text format 0.0.4, skipping comments and _bucket
// lines. Label values never contain escaped quotes in this repo's output;
// one that does is an error, not a silent mis-parse.
func parseExposition(r io.Reader) (exposition, error) {
	var out exposition
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		s := series{name: line[:sp], value: v}
		if br := strings.IndexByte(s.name, '{'); br >= 0 {
			if !strings.HasSuffix(s.name, "}") || strings.Contains(s.name, `\"`) {
				return nil, fmt.Errorf("metrics line %q: unsupported label syntax", line)
			}
			s.labels = map[string]string{}
			for _, pair := range strings.Split(s.name[br+1:len(s.name)-1], ",") {
				k, val, ok := strings.Cut(pair, "=")
				if !ok || len(val) < 2 || val[0] != '"' || val[len(val)-1] != '"' {
					return nil, fmt.Errorf("metrics line %q: bad label %q", line, pair)
				}
				s.labels[k] = val[1 : len(val)-1]
			}
			s.name = s.name[:br]
		}
		if strings.HasSuffix(s.name, "_bucket") {
			continue
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// sum adds up every series of the family whose labels include all the given
// key, value pairs.
func (e exposition) sum(name string, kv ...string) float64 {
	var total float64
next:
	for _, s := range e {
		if s.name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		total += s.value
	}
	return total
}

// labelValues lists the distinct values one label takes within a family, in
// first-seen order.
func (e exposition) labelValues(name, label string) []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range e {
		if v, ok := s.labels[label]; ok && s.name == name && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// expoDelta is the change of a set of /metrics pages between two scrapes;
// several pages (one per shard process) are summed.
type expoDelta struct{ before, after []exposition }

// sum is the family's increase over the interval, summed over pages.
func (d expoDelta) sum(name string, kv ...string) float64 {
	var total float64
	for i := range d.after {
		total += d.after[i].sum(name, kv...) - d.before[i].sum(name, kv...)
	}
	return total
}

// meanSeconds is a latency histogram's mean over the interval, in seconds:
// delta(_sum) / delta(_count). 0 when nothing was recorded.
func (d expoDelta) meanSeconds(family string, kv ...string) float64 {
	n := d.sum(family+"_count", kv...)
	if n == 0 {
		return 0
	}
	return d.sum(family+"_sum", kv...) / n
}
