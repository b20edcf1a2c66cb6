// Package obs is the repository's observability core: a dependency-free
// metrics registry rendering Prometheus text exposition, slog-based
// structured-logging helpers, phase totals summed from a span subtree, and
// HTTP server middleware. Everything lives on the stdlib so the simulator and
// the evaluation service can instrument themselves without pulling in a
// metrics client.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricType is a Prometheus exposition metric type.
type MetricType string

// The metric types the registry supports.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use; the observe
// paths (Counter.Add, Gauge.Set, Histogram.Observe) are lock-free.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	// eofTerminator appends the OpenMetrics "# EOF" terminator to
	// expositions (SetOpenMetricsEOF). Off by default: classic Prometheus
	// text format has no terminator, and some strict 0.0.4 parsers reject
	// unknown comment lines.
	eofTerminator bool
}

// family is one named metric family with its labelled children.
type family struct {
	name       string
	help       string
	typ        MetricType
	labelNames []string
	buckets    []float64 // histograms only

	mu       sync.Mutex
	children map[string]metric
	order    []string // child label strings in creation order
}

// metric is one labelled child of a family.
type metric interface {
	// writeSamples renders the child's sample lines. labels is the
	// pre-rendered `{k="v",…}` string ("" for unlabelled children).
	writeSamples(w io.Writer, name, labels string, buckets []float64)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family registers (or fetches) a family, enforcing name/type consistency.
func (r *Registry) family(name, help string, typ MetricType, labelNames []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labelNames {
		if !validName(l) {
			panic(fmt.Sprintf("obs: invalid label name %q", l))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labelNames) != len(labelNames) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different type or label set", name))
		}
		return f
	}
	f := &family{
		name:       name,
		help:       help,
		typ:        typ,
		labelNames: labelNames,
		buckets:    buckets,
		children:   map[string]metric{},
	}
	r.families[name] = f
	return f
}

// child fetches or creates the labelled child built by mk.
func (f *family) child(labelValues []string, mk func() metric) metric {
	if len(labelValues) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labelNames), len(labelValues)))
	}
	key := renderLabels(f.labelNames, labelValues)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[key]; ok {
		return m
	}
	m := mk()
	f.children[key] = m
	f.order = append(f.order, key)
	return m
}

// Counter registers (or fetches) an unlabelled monotonic counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, TypeCounter, nil, nil)
	return f.child(nil, func() metric { return &Counter{} }).(*Counter)
}

// CounterVec registers a counter family with labels.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, TypeCounter, labelNames, nil)}
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time. fn must be safe to call concurrently and monotonically
// non-decreasing (e.g. backed by an atomic total).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.family(name, help, TypeCounter, nil, nil)
	f.child(nil, func() metric { return counterFunc(fn) })
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, TypeGauge, nil, nil)
	return f.child(nil, func() metric { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers a gauge family with labels.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, TypeGauge, labelNames, nil)}
}

// GaugeFunc registers a gauge whose value is read from fn at scrape time.
// fn must be safe to call concurrently.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, TypeGauge, nil, nil)
	f.child(nil, func() metric { return gaugeFunc(fn) })
}

// Histogram registers (or fetches) an unlabelled histogram with the given
// upper bucket bounds (ascending; +Inf is implicit) and returns its
// observation handle.
func (r *Registry) Histogram(name, help string, buckets []float64) BoundHistogram {
	checkBuckets(name, buckets)
	f := r.family(name, help, TypeHistogram, nil, buckets)
	h := f.child(nil, func() metric { return newHistogram(len(buckets)) }).(*histogram)
	return BoundHistogram{h: h, bounds: f.buckets}
}

// HistogramVec registers a histogram family with labels.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labelNames ...string) *HistogramVec {
	checkBuckets(name, buckets)
	return &HistogramVec{f: r.family(name, help, TypeHistogram, labelNames, buckets)}
}

func checkBuckets(name string, buckets []float64) {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
}

// SetOpenMetricsEOF opts the registry into terminating expositions with
// the OpenMetrics "# EOF" marker, which lets scrapers distinguish a
// complete document from one truncated mid-transfer. ValidateExposition
// accepts either form.
func (r *Registry) SetOpenMetricsEOF(on bool) {
	r.mu.Lock()
	r.eofTerminator = on
	r.mu.Unlock()
}

// WritePrometheus renders every family in Prometheus text exposition format
// (families sorted by name; each with its # HELP and # TYPE block),
// followed by the "# EOF" terminator when SetOpenMetricsEOF opted in.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	eof := r.eofTerminator
	r.mu.Unlock()

	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	if eof {
		if _, err := io.WriteString(w, "# EOF\n"); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
		return err
	}
	f.mu.Lock()
	type kv struct {
		labels string
		m      metric
	}
	children := make([]kv, 0, len(f.order))
	for _, key := range f.order {
		children = append(children, kv{key, f.children[key]})
	}
	f.mu.Unlock()
	for _, c := range children {
		c.m.writeSamples(w, f.name, c.labels, f.buckets)
	}
	return nil
}

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (must be non-negative; negative deltas are ignored to keep the
// counter monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) writeSamples(w io.Writer, name, labels string, _ []float64) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With returns the child counter for the label values (order matches the
// registration's label names).
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.child(labelValues, func() metric { return &Counter{} }).(*Counter)
}

// Gauge is a float64 metric that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta atomically.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) writeSamples(w io.Writer, name, labels string, _ []float64) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}

// GaugeVec is a labelled gauge family.
type GaugeVec struct{ f *family }

// With returns the child gauge for the label values (order matches the
// registration's label names).
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.child(labelValues, func() metric { return &Gauge{} }).(*Gauge)
}

// counterFunc is a scrape-time callback counter.
type counterFunc func() float64

func (fn counterFunc) writeSamples(w io.Writer, name, labels string, _ []float64) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(fn()))
}

// gaugeFunc is a scrape-time callback gauge.
type gaugeFunc func() float64

func (fn gaugeFunc) writeSamples(w io.Writer, name, labels string, _ []float64) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(fn()))
}

// histogram is a fixed-bucket histogram child. Bucket bounds live on the
// family; counts are stored per-bucket and rendered cumulatively.
type histogram struct {
	counts  []atomic.Int64 // one per finite bucket, plus one for +Inf
	count   atomic.Int64
	sumBits atomic.Uint64
}

func newHistogram(buckets int) *histogram {
	return &histogram{counts: make([]atomic.Int64, buckets+1)}
}

// BoundHistogram is a histogram child paired with its family's bucket
// bounds — the handle callers observe into.
type BoundHistogram struct {
	h      *histogram
	bounds []float64
}

// Observe records one value.
func (b BoundHistogram) Observe(v float64) {
	i := sort.SearchFloat64s(b.bounds, v)
	b.h.counts[i].Add(1)
	b.h.count.Add(1)
	for {
		old := b.h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if b.h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (b BoundHistogram) Count() int64 { return b.h.count.Load() }

// Sum returns the sum of observed values.
func (b BoundHistogram) Sum() float64 { return math.Float64frombits(b.h.sumBits.Load()) }

func (h *histogram) writeSamples(w io.Writer, name, labels string, buckets []float64) {
	cum := int64(0)
	for i, bound := range buckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", formatFloat(bound)), cum)
	}
	cum += h.counts[len(buckets)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabel(labels, "le", "+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(math.Float64frombits(h.sumBits.Load())))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

// HistogramVec is a labelled histogram family.
type HistogramVec struct{ f *family }

// With returns the observation handle for the label values.
func (v *HistogramVec) With(labelValues ...string) BoundHistogram {
	h := v.f.child(labelValues, func() metric { return newHistogram(len(v.f.buckets)) }).(*histogram)
	return BoundHistogram{h: h, bounds: v.f.buckets}
}

// renderLabels formats `{k="v",…}` (or "" when empty), escaping values.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabel appends one label pair to a rendered label string.
func mergeLabel(labels, name, value string) string {
	pair := name + `="` + escapeLabel(value) + `"`
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a sample value: integers without a decimal point,
// everything else in shortest-round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// validName checks the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
