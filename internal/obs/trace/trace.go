// Package trace is a dependency-free hierarchical span tracer: spans carry
// a trace ID, span ID, parent ID, name, start/end times, and key/value
// attributes, and traces stitch across processes over the W3C traceparent
// header. A trace keeps the parent/child structure and per-instance
// timings, so "where did job X's 40 seconds go?" has an answer across
// coordinator and workers; package obs sums a subtree's spans by name into
// the evaluation's phase totals.
//
// The package lives below obs (stdlib-only, no obs import) so the obs HTTP
// middleware can open root spans without an import cycle.
//
// Collection is allocation-cheap: finished spans recycle through a
// per-trace free list, and each trace caps its span count, counting drops
// instead of growing without bound. Every constructor is nil-safe — a nil
// *Span (tracing disabled, cap hit) absorbs End/SetAttr calls for free, so
// instrumentation points never need a nil check.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultMaxSpans is the default per-trace span cap. A full-suite sweep
// records a few spans per (scheme, benchmark) run; 4096 leaves an order of
// magnitude of headroom while bounding a runaway instrumentation loop.
const DefaultMaxSpans = 4096

// Attr is one span attribute. S carries string values; I carries integer
// values when S is empty (exporters render whichever is set).
type Attr struct {
	K string `json:"k"`
	S string `json:"s,omitempty"`
	I int64  `json:"i,omitempty"`
}

// SpanRecord is one finished span in wire form: it crosses the fleet
// protocol inside the complete payload and feeds the Perfetto exporter.
// IDs are lowercase hex (16 digits; the trace ID lives on the Trace).
// StartUnixNS is the recording process's wall clock — absolute so spans
// from different nodes land on one timeline, best-effort because clocks
// skew; the parent/child structure is authoritative, not the overlap.
type SpanRecord struct {
	SpanID      string `json:"spanId"`
	ParentID    string `json:"parentId,omitempty"`
	Name        string `json:"name"`
	Node        string `json:"node,omitempty"`
	StartUnixNS int64  `json:"startUnixNs"`
	DurNS       int64  `json:"durNs"`
	Attrs       []Attr `json:"attrs,omitempty"`
}

// Tracer mints traces and spans for one node (process). It is the
// process-wide handle: the totals it keeps feed the
// equinox_trace_spans_total / equinox_trace_dropped_spans_total counters.
type Tracer struct {
	node     string
	maxSpans int

	spansTotal   atomic.Int64
	droppedTotal atomic.Int64

	// ID generation: a per-tracer random prefix plus a sequence number.
	// crypto/rand runs once at construction, not per span.
	tracePrefix uint64
	spanPrefix  uint32
	seq         atomic.Uint64
}

// NewTracer returns a tracer whose spans carry node as their process
// identity (e.g. "coordinator", the worker's name).
func NewTracer(node string) *Tracer {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a time-derived prefix; uniqueness degrades but
		// nothing breaks (IDs only need to be unique within a trace).
		binary.BigEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
	}
	return &Tracer{
		node:        node,
		maxSpans:    DefaultMaxSpans,
		tracePrefix: binary.BigEndian.Uint64(b[:8]),
		spanPrefix:  binary.BigEndian.Uint32(b[8:12]),
	}
}

// Node returns the tracer's node name.
func (t *Tracer) Node() string { return t.node }

// SpansTotal counts spans started since process start (including later
// drops and discarded traces).
func (t *Tracer) SpansTotal() int64 { return t.spansTotal.Load() }

// DroppedTotal counts spans dropped at the per-trace cap.
func (t *Tracer) DroppedTotal() int64 { return t.droppedTotal.Load() }

func (t *Tracer) nextSpanID() string {
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], t.spanPrefix)
	binary.BigEndian.PutUint32(b[4:], uint32(t.seq.Add(1)))
	return hex.EncodeToString(b[:])
}

// New mints a trace with a fresh trace ID.
func (t *Tracer) New() *Trace {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], t.tracePrefix)
	binary.BigEndian.PutUint64(b[8:], t.seq.Add(1))
	return &Trace{tracer: t, id: hex.EncodeToString(b[:]), max: t.maxSpans}
}

// Join adopts a remote trace context from a W3C traceparent header,
// returning the local collector and the remote parent span ID. ok is false
// when the header is absent or malformed — callers then either mint a
// fresh trace (HTTP middleware) or skip tracing (fleet workers).
func (t *Tracer) Join(traceparent string) (tr *Trace, parent string, ok bool) {
	traceID, spanID, ok := ParseTraceParent(traceparent)
	if !ok {
		return nil, "", false
	}
	return &Trace{tracer: t, id: traceID, max: t.maxSpans}, spanID, true
}

// Trace is one trace's span collector. Spans started from it (and records
// imported from remote nodes) accumulate until Records is called; all
// methods are safe for concurrent use.
type Trace struct {
	tracer *Tracer
	id     string
	max    int

	mu      sync.Mutex
	recs    []SpanRecord
	started int // live spans + finished records, vs. the cap
	dropped int64
	free    []*Span
}

// ID returns the 32-hex-digit trace ID.
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Dropped counts spans this trace dropped at its cap.
func (tr *Trace) Dropped() int64 {
	if tr == nil {
		return 0
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.dropped
}

// Start opens a span under the given parent span ID ("" for a root span).
// Returns nil — safe for every Span method — once the trace hits its span
// cap; the drop is counted.
func (tr *Trace) Start(parent, name string) *Span {
	if tr == nil {
		return nil
	}
	tr.tracer.spansTotal.Add(1)
	tr.mu.Lock()
	if tr.started >= tr.max {
		tr.dropped++
		tr.mu.Unlock()
		tr.tracer.droppedTotal.Add(1)
		return nil
	}
	tr.started++
	var sp *Span
	if k := len(tr.free); k > 0 {
		sp = tr.free[k-1]
		tr.free = tr.free[:k-1]
	} else {
		sp = &Span{}
	}
	tr.mu.Unlock()
	now := time.Now()
	sp.tr = tr
	sp.id = tr.tracer.nextSpanID()
	sp.parent = parent
	sp.name = name
	sp.start = now
	sp.startUnixNS = now.UnixNano()
	sp.attrs = sp.attrs[:0]
	return sp
}

// Observe appends an already-measured span — a phase whose boundaries were
// captured before the trace knew about it (queue waits, synthesized
// round-trips). Subject to the same cap and drop accounting as Start.
func (tr *Trace) Observe(parent, name string, start time.Time, d time.Duration, attrs ...Attr) {
	if tr == nil {
		return
	}
	tr.tracer.spansTotal.Add(1)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.started >= tr.max {
		tr.dropped++
		tr.tracer.droppedTotal.Add(1)
		return
	}
	tr.started++
	var as []Attr
	if len(attrs) > 0 {
		as = append(as, attrs...)
	}
	tr.recs = append(tr.recs, SpanRecord{
		SpanID:      tr.tracer.nextSpanID(),
		ParentID:    parent,
		Name:        name,
		Node:        tr.tracer.node,
		StartUnixNS: start.UnixNano(),
		DurNS:       d.Nanoseconds(),
		Attrs:       as,
	})
}

// Import stitches remote span records (a worker's complete payload) into
// the trace. Imported records keep their own node names and IDs; they
// count against the cap like local spans.
func (tr *Trace) Import(recs []SpanRecord) {
	if tr == nil || len(recs) == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, r := range recs {
		if tr.started >= tr.max {
			tr.dropped++
			tr.tracer.droppedTotal.Add(1)
			continue
		}
		tr.started++
		tr.recs = append(tr.recs, r)
	}
}

// Records snapshots the finished spans collected so far.
func (tr *Trace) Records() []SpanRecord {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]SpanRecord(nil), tr.recs...)
}

// Span is one in-flight span. The zero value is unusable; obtain spans
// from Trace.Start or StartChild. A nil *Span absorbs every method call.
type Span struct {
	tr          *Trace
	id          string
	parent      string
	name        string
	start       time.Time
	startUnixNS int64
	attrs       []Attr
}

// ID returns the span's 16-hex-digit ID ("" on nil).
func (sp *Span) ID() string {
	if sp == nil {
		return ""
	}
	return sp.id
}

// Trace returns the span's collector (nil on nil).
func (sp *Span) Trace() *Trace {
	if sp == nil {
		return nil
	}
	return sp.tr
}

// SetAttr attaches a string attribute.
func (sp *Span) SetAttr(k, v string) {
	if sp == nil {
		return
	}
	sp.attrs = append(sp.attrs, Attr{K: k, S: v})
}

// SetAttrInt attaches an integer attribute.
func (sp *Span) SetAttrInt(k string, v int64) {
	if sp == nil {
		return
	}
	sp.attrs = append(sp.attrs, Attr{K: k, I: v})
}

// End closes the span, appending its record to the trace and recycling the
// span into the trace's free list. Calling End twice is a no-op.
func (sp *Span) End() {
	if sp == nil || sp.tr == nil {
		return
	}
	tr := sp.tr
	sp.tr = nil // guard double End; the span is about to be reused
	d := time.Since(sp.start)
	// The attrs slice is about to be reused by the next span drawn from
	// the free list, so the record gets its own copy.
	var attrs []Attr
	if len(sp.attrs) > 0 {
		attrs = append(attrs, sp.attrs...)
	}
	rec := SpanRecord{
		SpanID:      sp.id,
		ParentID:    sp.parent,
		Name:        sp.name,
		Node:        tr.tracer.node,
		StartUnixNS: sp.startUnixNS,
		DurNS:       d.Nanoseconds(),
		Attrs:       attrs,
	}
	tr.mu.Lock()
	tr.recs = append(tr.recs, rec)
	tr.free = append(tr.free, sp)
	tr.mu.Unlock()
}

// TraceParent renders the span as a W3C traceparent header value
// (version 00, sampled flag set): 00-<32 hex trace>-<16 hex span>-01.
// Returns "" on a nil span.
func (sp *Span) TraceParent() string {
	if sp == nil || sp.tr == nil {
		return ""
	}
	return formatTraceParent(sp.tr.id, sp.id)
}

// formatTraceParent renders a version-00, sampled traceparent value.
func formatTraceParent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// TraceParentHeader is the W3C propagation header name.
const TraceParentHeader = "traceparent"

// ParseTraceParent parses a version-00 traceparent header value into its
// trace and parent-span IDs. Unknown versions and malformed values are
// rejected (ok == false) — the caller starts a fresh trace instead.
func ParseTraceParent(v string) (traceID, spanID string, ok bool) {
	// 00-<32 hex>-<16 hex>-<2 hex flags>
	if len(v) != 55 || v[0] != '0' || v[1] != '0' || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return "", "", false
	}
	traceID, spanID = v[3:35], v[36:52]
	if !isHex(traceID) || !isHex(spanID) || !isHex(v[53:]) {
		return "", "", false
	}
	if traceID == "00000000000000000000000000000000" || spanID == "0000000000000000" {
		return "", "", false
	}
	return traceID, spanID, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// spanKey carries the active span through a context.
type spanKey struct{}

// WithSpan returns a context carrying sp as the active span; StartChild
// calls below it open children of sp. A nil span returns ctx unchanged, so
// dropped spans silently reparent their children one level up.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom returns the context's active span, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartChild opens a child of the context's active span. Without one (or
// with tracing disabled) it returns nil, which every Span method absorbs —
// the instrumentation point costs one context lookup.
func StartChild(ctx context.Context, name string) *Span {
	sp := SpanFrom(ctx)
	if sp == nil || sp.tr == nil {
		return nil
	}
	return sp.tr.Start(sp.id, name)
}
