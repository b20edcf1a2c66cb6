package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"equinox/internal/obs/trace"
)

// DefaultLatencyBuckets are the request-latency histogram bounds in
// seconds, spanning fast cache hits to multi-minute evaluation polls.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30, 120}
}

// HTTPMetrics is the standard server-side HTTP instrument set.
type HTTPMetrics struct {
	requests *CounterVec   // route, method, code
	latency  *HistogramVec // route
	inflight *Gauge
}

// NewHTTPMetrics registers the HTTP metric families under a name prefix
// (e.g. "equinox" → equinox_http_requests_total, …).
func NewHTTPMetrics(reg *Registry, prefix string) *HTTPMetrics {
	return &HTTPMetrics{
		requests: reg.CounterVec(prefix+"_http_requests_total",
			"HTTP requests served, by route, method, and status code.",
			"route", "method", "code"),
		latency: reg.HistogramVec(prefix+"_http_request_seconds",
			"HTTP request latency in seconds, by route.",
			DefaultLatencyBuckets(), "route"),
		inflight: reg.Gauge(prefix+"_http_inflight",
			"HTTP requests currently being served."),
	}
}

// statusWriter captures the response status code.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the wrapped writer when it streams.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Request-ID generation: a per-process random prefix plus a sequence
// number, cheap and unique enough to correlate one log stream.
var (
	ridPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Int64
)

func nextRequestID() string {
	return fmt.Sprintf("%s-%06d", ridPrefix, ridSeq.Add(1))
}

// RequestIDHeader is the header request IDs are read from and echoed on.
const RequestIDHeader = "X-Request-Id"

// ridKey is the context key request IDs travel under.
type ridKey struct{}

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, ridKey{}, rid)
}

// RequestIDFrom returns the request ID carried by the context, or "". Inside
// handlers wrapped by Middleware it is always set.
func RequestIDFrom(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey{}).(string)
	return rid
}

// WriteJSON answers with v as compact JSON. v is rendered before the status
// line goes out, so a value that cannot be marshalled is answered with a
// 500 and an error body, never with code and an empty body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body, _ = json.Marshal(map[string]string{"error": "rendering the response: " + err.Error()}) // a string map always marshals
	}
	WriteJSONBody(w, code, append(body, '\n'))
}

// WriteError answers with {"error": msg}.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

// WriteJSONBody answers with body, an already rendered JSON document, as
// it is.
func WriteJSONBody(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body) //nolint:errcheck // the client went away; nothing left to tell it
}

// Middleware instruments an HTTP handler: per-route request counters and
// latency histograms, an in-flight gauge, request IDs echoed in the
// response (honoring an incoming X-Request-Id), a root trace span per
// request (joining an incoming W3C traceparent when tracer is non-nil),
// and one structured access log line per request. route maps a request to
// a bounded label value (never the raw path — unbounded label cardinality
// would leak memory).
func Middleware(next http.Handler, m *HTTPMetrics, logger *slog.Logger, tracer *trace.Tracer, route func(*http.Request) string) http.Handler {
	if logger == nil {
		logger = NopLogger()
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get(RequestIDHeader)
		if rid == "" {
			rid = nextRequestID()
		}
		w.Header().Set(RequestIDHeader, rid)
		ctx := WithRequestID(r.Context(), rid)

		rt := route(r)
		var sp *trace.Span
		if tracer != nil {
			// Join the caller's trace if it sent one; otherwise this
			// request roots a fresh trace.
			tr, parent, ok := tracer.Join(r.Header.Get(trace.TraceParentHeader))
			if !ok {
				tr, parent = tracer.New(), ""
			}
			sp = tr.Start(parent, "http "+rt)
			sp.SetAttr("method", r.Method)
			sp.SetAttr("route", rt)
			sp.SetAttr("requestId", rid)
			ctx = trace.WithSpan(ctx, sp)
		}
		r = r.WithContext(ctx)

		m.inflight.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		m.inflight.Add(-1)

		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		sp.SetAttrInt("status", int64(sw.status))
		sp.End()
		m.latency.With(rt).Observe(elapsed.Seconds())
		m.requests.With(rt, methodLabel(r.Method), fmt.Sprintf("%d", sw.status)).Inc()
		logger.Info("http request",
			"requestId", rid,
			"method", r.Method,
			"route", rt,
			"path", r.URL.Path,
			"status", sw.status,
			"durationMs", float64(elapsed.Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}

// methodLabel bounds the method label: a method net/http names keeps its
// name, and any other token a client sends counts as "other". Spans and
// access logs keep the raw method.
func methodLabel(method string) string {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
		http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace:
		return method
	}
	return "other"
}
