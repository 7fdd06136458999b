// Package obs is the dependency-free observability core of the serving
// stack: atomic counters and gauges, lock-free log-bucketed latency
// histograms with an allocation-free Record, a process-wide registry, and a
// Prometheus-text-format exposition writer (served as GET /metrics by both
// permserve and permrouter).
//
// The design constraint that shapes everything here is the repository's
// zero-allocation query regime: instrumentation sits directly on the warm
// search path, so every warm-path operation — Counter.Add, Gauge.Set,
// Histogram.Record, QueryTrace field accumulation — is a plain atomic (or
// plain store) on memory allocated once at registration time. Allocation is
// confined to registration (New*/With) and exposition (WriteText), both cold.
//
// Histograms are HDR-style log-linear: values below 2^subBits land in exact
// unit buckets, larger values in one of 2^subBits sub-buckets per power of
// two, bounding the relative quantile error at 2^-subBits (6.25%). A
// histogram is a fixed array of atomic buckets — Record is one AddInt64 at
// a computed index, concurrent Records never contend on a lock, and
// Snapshot is a racy-but-monotone copy (each bucket individually atomic),
// which is exactly the consistency /metrics scraping needs.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative n is ignored: counters are
// monotone by contract).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram bucket layout: subBits sub-buckets per power of two.
const (
	subBits = 4
	subMask = 1<<subBits - 1
	// NumBuckets is the fixed bucket count of every Histogram: exact unit
	// buckets for values < 2^subBits, then (63-subBits) blocks of 2^subBits
	// sub-buckets covering the full non-negative int64 range.
	NumBuckets = (63 - subBits + 1) << subBits
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	u := uint64(v)
	if u < 1<<subBits {
		return int(u)
	}
	e := bits.Len64(u) - 1 // position of the top set bit; >= subBits
	return ((e - subBits + 1) << subBits) + int((u>>(uint(e)-subBits))&subMask)
}

// BucketLow returns the smallest value mapping to bucket i.
func BucketLow(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	e := uint(i>>subBits + subBits - 1)
	return int64(1)<<e | int64(i&subMask)<<(e-subBits)
}

// BucketHigh returns the largest value mapping to bucket i.
func BucketHigh(i int) int64 {
	if i >= NumBuckets-1 {
		return math.MaxInt64
	}
	return BucketLow(i+1) - 1
}

// Histogram is a lock-free log-bucketed distribution of int64 observations
// (canonically nanoseconds; the owning family's scale converts at
// exposition time). The zero value is ready to use. Record performs zero
// allocations and never blocks; Snapshot may run concurrently with Records.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Record adds one observation. Negative values clamp to zero (a latency can
// read negative only through clock trouble; losing the sample would skew
// the count the count/sum invariants depend on).
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Since records the nanoseconds elapsed from t0 to now.
func (h *Histogram) Since(t0 time.Time) { h.Record(time.Since(t0).Nanoseconds()) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of the recorded observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// HistSnapshot is a point-in-time copy of a histogram, safe to read at
// leisure. Counts are copied bucket-atomically: a snapshot taken under
// concurrent Records sees each bucket at some moment during the copy
// (counts never decrease), so derived quantiles are valid for some state
// the histogram passed through.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Buckets [NumBuckets]int64
}

// Snapshot copies the histogram into s (allocation-free for a caller-owned
// snapshot). Count is recomputed from the copied buckets so the
// quantile walk can never read past its own total.
func (h *Histogram) Snapshot(s *HistSnapshot) {
	s.Sum = h.sum.Load()
	var total int64
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Buckets[i] = c
		total += c
	}
	s.Count = total
}

// Quantile returns an upper bound on the q-quantile (q in [0, 1]) of the
// recorded values: the high edge of the bucket the rank falls in, so the
// estimate is never below the true quantile and at most 2^-subBits above
// it (relatively). Returns 0 when the snapshot is empty.
func (s *HistSnapshot) Quantile(q float64) int64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range s.Buckets {
		cum += s.Buckets[i]
		if cum >= rank {
			return BucketHigh(i)
		}
	}
	return BucketHigh(NumBuckets - 1)
}

// Metric families and the registry.

const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// child is one labeled instance of a family; exactly one of the metric
// fields is set, matching the family kind.
type child struct {
	vals []string
	c    *Counter
	g    *Gauge
	gf   func() float64
	h    *Histogram
}

// Family is one named metric family: a kind, a help string, a label schema,
// and the labeled children. Children are resolved once at setup time
// (With); the returned handles are what the hot path touches.
type Family struct {
	name   string
	help   string
	kind   string
	labels []string
	scale  float64 // histogram exposition multiplier (e.g. 1e-9: ns -> s)

	mu       sync.Mutex
	byKey    map[string]*child
	children []*child
}

// Name returns the family name.
func (f *Family) Name() string { return f.name }

// labelKey joins label values into a map key. \x00 cannot appear in a
// label value that survives exposition escaping, so the join is injective.
func labelKey(vals []string) string { return strings.Join(vals, "\x00") }

// get returns (creating if needed) the child for the given label values.
func (f *Family) get(vals []string) *child {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: family %s has %d labels, got %d values", f.name, len(f.labels), len(vals)))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	key := labelKey(vals)
	if ch, ok := f.byKey[key]; ok {
		return ch
	}
	ch := &child{vals: append([]string(nil), vals...)}
	switch f.kind {
	case kindCounter:
		ch.c = &Counter{}
	case kindGauge:
		ch.g = &Gauge{}
	case kindHistogram:
		ch.h = &Histogram{}
	}
	if f.byKey == nil {
		f.byKey = map[string]*child{}
	}
	f.byKey[key] = ch
	f.children = append(f.children, ch)
	return ch
}

// CounterVec is a counter family handle.
type CounterVec struct{ f *Family }

// With returns the counter for the given label values, creating it on
// first use. Resolve once at setup; the returned handle is hot-path safe.
func (v CounterVec) With(vals ...string) *Counter { return v.f.get(vals).c }

// GaugeVec is a gauge family handle.
type GaugeVec struct{ f *Family }

// With returns the gauge for the given label values.
func (v GaugeVec) With(vals ...string) *Gauge { return v.f.get(vals).g }

// HistogramVec is a histogram family handle.
type HistogramVec struct{ f *Family }

// With returns the histogram for the given label values.
func (v HistogramVec) With(vals ...string) *Histogram { return v.f.get(vals).h }

// Registry is a set of metric families with a text-exposition writer. The
// zero value is not usable; create with NewRegistry. Registration is
// idempotent: re-registering a name with the same kind and label schema
// returns the existing family (so a reload or a second server over the
// same registry cannot double-register), while a conflicting
// re-registration panics — a name collision is a programming error that
// would silently corrupt the exposition otherwise.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*Family
	fams   []*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*Family{}}
}

// std is the process-wide default registry.
var std = NewRegistry()

// Default returns the process-wide registry. Daemons that own their
// process (permserve, permrouter) use it; tests and libraries create
// private registries so parallel instances cannot collide.
func Default() *Registry { return std }

// family registers (or re-resolves) a family.
func (r *Registry) family(name, help, kind string, scale float64, labels []string) *Family {
	if name == "" || !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q in family %s", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: family %s re-registered as %s(%v), was %s(%v)", name, kind, labels, f.kind, f.labels))
		}
		for i := range labels {
			if f.labels[i] != labels[i] {
				panic(fmt.Sprintf("obs: family %s re-registered with labels %v, was %v", name, labels, f.labels))
			}
		}
		return f
	}
	f := &Family{name: name, help: help, kind: kind, scale: scale, labels: append([]string(nil), labels...)}
	r.byName[name] = f
	r.fams = append(r.fams, f)
	return f
}

// Counter registers (or re-resolves) a counter family.
func (r *Registry) Counter(name, help string, labels ...string) CounterVec {
	return CounterVec{r.family(name, help, kindCounter, 1, labels)}
}

// Gauge registers (or re-resolves) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.family(name, help, kindGauge, 1, labels)}
}

// GaugeFunc registers an unlabeled gauge whose value is computed at
// exposition time — runtime observables (goroutines, heap bytes, uptime)
// that would be stale as stored values.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, kindGauge, 1, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.children) == 0 {
		f.children = append(f.children, &child{gf: fn})
		f.byKey = map[string]*child{"": f.children[0]}
	} else {
		f.children[0].gf = fn
	}
}

// Histogram registers (or re-resolves) a histogram family. scale multiplies
// recorded values at exposition time: latency histograms record nanoseconds
// and register with scale 1e-9 so /metrics speaks seconds, the Prometheus
// base unit.
func (r *Registry) Histogram(name, help string, scale float64, labels ...string) HistogramVec {
	if scale <= 0 {
		scale = 1
	}
	return HistogramVec{r.family(name, help, kindHistogram, scale, labels)}
}

// WriteText writes the registry in Prometheus text exposition format
// (version 0.0.4): # HELP and # TYPE per family, then one sample line per
// child (histograms expand to _bucket/_sum/_count). Families are written
// in sorted name order so the output is deterministic.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*Family(nil), r.fams...)
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	bw := &errWriter{w: w}
	for _, f := range fams {
		f.writeText(bw)
		if bw.err != nil {
			return bw.err
		}
	}
	return bw.err
}

// errWriter latches the first write error so exposition code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) WriteString(s string) {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

func (f *Family) writeText(w *errWriter) {
	f.mu.Lock()
	children := append([]*child(nil), f.children...)
	f.mu.Unlock()
	if len(children) == 0 {
		return
	}
	if f.help != "" {
		w.WriteString("# HELP " + f.name + " " + escapeHelp(f.help) + "\n")
	}
	w.WriteString("# TYPE " + f.name + " " + f.kind + "\n")
	for _, ch := range children {
		switch f.kind {
		case kindCounter:
			w.WriteString(f.name + f.labelString(ch.vals, "", 0) + " " + formatInt(ch.c.Load()) + "\n")
		case kindGauge:
			if ch.gf != nil {
				w.WriteString(f.name + f.labelString(ch.vals, "", 0) + " " + formatFloat(ch.gf()) + "\n")
			} else {
				w.WriteString(f.name + f.labelString(ch.vals, "", 0) + " " + formatInt(ch.g.Load()) + "\n")
			}
		case kindHistogram:
			f.writeHistogram(w, ch)
		}
	}
}

// writeHistogram expands one histogram child into cumulative _bucket lines
// (only buckets that hold observations get an edge — the fine internal
// resolution would otherwise emit hundreds of empty lines), +Inf, _sum and
// _count.
func (f *Family) writeHistogram(w *errWriter, ch *child) {
	var snap HistSnapshot
	ch.h.Snapshot(&snap)
	var cum int64
	for i, c := range snap.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		if i == NumBuckets-1 {
			break // the top bucket's edge is +Inf, written below
		}
		le := formatFloat(float64(BucketHigh(i)) * f.scale)
		w.WriteString(f.name + "_bucket" + f.labelString(ch.vals, "le", le) + " " + formatInt(cum) + "\n")
	}
	w.WriteString(f.name + "_bucket" + f.labelString(ch.vals, "le", "+Inf") + " " + formatInt(snap.Count) + "\n")
	w.WriteString(f.name + "_sum" + f.labelString(ch.vals, "", 0) + " " + formatFloat(float64(snap.Sum)*f.scale) + "\n")
	w.WriteString(f.name + "_count" + f.labelString(ch.vals, "", 0) + " " + formatInt(snap.Count) + "\n")
}

// labelString renders {k="v",...}; extraK/extraV append one more pair (the
// histogram "le" edge). Returns "" when there are no pairs at all.
func (f *Family) labelString(vals []string, extraK string, extraV any) string {
	if len(vals) == 0 && extraK == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range f.labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(f.labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(fmt.Sprint(extraV)))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatInt(v int64) string { return strconv.FormatInt(v, 10) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// escapeHelp escapes a help string: backslash and newline (quotes are legal
// in help text).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// validMetricName checks [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(s string) bool {
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return s != ""
}

// validLabelName checks [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(s string) bool {
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return s != ""
}
