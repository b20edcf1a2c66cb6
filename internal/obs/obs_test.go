package obs

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"equinox/internal/obs/trace"
)

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()

	c := reg.Counter("test_jobs_total", "Jobs processed.")
	c.Add(3)
	cv := reg.CounterVec("test_requests_total", "Requests by route and code.", "route", "code")
	cv.With("/v1/jobs", "200").Inc()
	cv.With("/v1/jobs", "200").Inc()
	cv.With("/v1/jobs", "404").Inc()

	g := reg.Gauge("test_inflight", "In-flight requests.")
	g.Set(2)
	g.Add(-1)
	reg.GaugeFunc("test_queue_depth", "Queue depth.", func() float64 { return 7 })

	h := reg.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.1) // le="0.1" is inclusive
	h.Observe(5)
	h.Observe(99)

	hv := reg.HistogramVec("test_route_seconds", "Per-route latency.", []float64{1}, "route")
	hv.With("a").Observe(0.5)
	hv.With("b").Observe(2)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	if err := ValidateExposition(out); err != nil {
		t.Fatalf("exposition did not validate: %v\n%s", err, out)
	}

	for _, want := range []string{
		"# HELP test_jobs_total Jobs processed.",
		"# TYPE test_jobs_total counter",
		"test_jobs_total 3",
		`test_requests_total{route="/v1/jobs",code="200"} 2`,
		`test_requests_total{route="/v1/jobs",code="404"} 1`,
		"test_inflight 1",
		"test_queue_depth 7",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.1"} 2`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="10"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		"test_latency_seconds_sum 104.15",
		"test_latency_seconds_count 4",
		`test_route_seconds_bucket{route="a",le="1"} 1`,
		`test_route_seconds_bucket{route="b",le="1"} 0`,
		`test_route_seconds_bucket{route="b",le="+Inf"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing line %q\n%s", want, out)
		}
	}

	if got := h.Count(); got != 4 {
		t.Errorf("histogram Count = %d, want 4", got)
	}
	if got := c.Value(); got != 3 {
		t.Errorf("counter Value = %d, want 3", got)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"type before help":     "# TYPE x counter\nx 1\n",
		"unknown type":         "# HELP x h\n# TYPE x summary\nx 1\n",
		"sample before type":   "x 1\n",
		"mismatched type name": "# HELP x h\n# TYPE y counter\ny 1\n",
		"bad value":            "# HELP x h\n# TYPE x counter\nx one\n",
		"negative counter":     "# HELP x h\n# TYPE x counter\nx -1\n",
		"foreign sample":       "# HELP x h\n# TYPE x counter\ny 1\n",
		"blank line":           "# HELP x h\n# TYPE x counter\n\nx 1\n",
		"decreasing buckets":   "# HELP x h\n# TYPE x histogram\nx_bucket{le=\"1\"} 5\nx_bucket{le=\"+Inf\"} 3\nx_sum 1\nx_count 3\n",
		"missing inf bucket":   "# HELP x h\n# TYPE x histogram\nx_bucket{le=\"1\"} 1\nx_sum 1\nx_count 1\n",
		"inf/count mismatch":   "# HELP x h\n# TYPE x histogram\nx_bucket{le=\"+Inf\"} 2\nx_sum 1\nx_count 3\n",
		"duplicate family":     "# HELP x h\n# TYPE x counter\nx 1\n# HELP x h\n# TYPE x counter\nx 1\n",
		"duplicate help/type":  "# HELP x h\n# TYPE x counter\nx 1\n# HELP x other\n# TYPE x gauge\nx 2\n",
		"dangling help":        "# HELP x h\n",
		"help without type":    "# HELP x h\n# HELP y h\n# TYPE y counter\ny 1\n",
		"stray comment":        "# comment\nx 1\n",
		"eof mid-document":     "# HELP x h\n# TYPE x counter\n# EOF\nx 1\n",
		"doubled eof":          "# HELP x h\n# TYPE x counter\nx 1\n# EOF\n# EOF\n",
	}
	for name, doc := range cases {
		if err := ValidateExposition(doc); err == nil {
			t.Errorf("%s: ValidateExposition accepted malformed doc:\n%s", name, doc)
		}
	}
	good := "# HELP x h\n# TYPE x histogram\nx_bucket{le=\"1\"} 1\nx_bucket{le=\"+Inf\"} 2\nx_sum 3.5\nx_count 2\n"
	if err := ValidateExposition(good); err != nil {
		t.Errorf("ValidateExposition rejected well-formed doc: %v", err)
	}
	// The OpenMetrics terminator is accepted as the final line.
	if err := ValidateExposition(good + "# EOF\n"); err != nil {
		t.Errorf("ValidateExposition rejected OpenMetrics-terminated doc: %v", err)
	}
}

// TestOpenMetricsEOFTerminator: the terminator is opt-in, renders as the
// last line, and the result still validates.
func TestOpenMetricsEOFTerminator(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_total", "T.").Inc()

	var plain bytes.Buffer
	if err := reg.WritePrometheus(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "# EOF") {
		t.Error("terminator emitted without opt-in")
	}

	reg.SetOpenMetricsEOF(true)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(buf.String(), "\n# EOF\n") {
		t.Errorf("exposition does not end with the terminator:\n%s", buf.String())
	}
	if err := ValidateExposition(buf.String()); err != nil {
		t.Errorf("terminated exposition did not validate: %v", err)
	}

	reg.SetOpenMetricsEOF(false)
	var off bytes.Buffer
	if err := reg.WritePrometheus(&off); err != nil {
		t.Fatal(err)
	}
	if off.String() != plain.String() {
		t.Error("disabling the terminator did not restore the classic form")
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	cv := reg.CounterVec("test_esc_total", "Escaping.", "v")
	cv.With("a\"b\\c\nd").Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `test_esc_total{v="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want+"\n") {
		t.Errorf("escaped label line %q missing:\n%s", want, buf.String())
	}
	if err := ValidateExposition(buf.String()); err != nil {
		t.Errorf("escaped exposition did not validate: %v", err)
	}
}

// FuzzValidateExposition: ValidateExposition reads documents from
// outside, so arbitrary text must never panic it; and whatever label value,
// help text and sample value a registry is given, the exposition it
// renders must validate — with a deleted gauge child gone from it.
func FuzzValidateExposition(f *testing.F) {
	f.Add("worker-1", "Help text.", 1.5)
	f.Add("a\"b\\c\nd", "back\\slash\nnewline", -0.0)
	f.Add("x,le=", "", math.Inf(1))
	f.Add(`}{"`, "# TYPE x counter", math.NaN())
	f.Add("# EOF\n", "\n\n", 1e300)
	f.Fuzz(func(t *testing.T, label, help string, v float64) {
		_ = ValidateExposition(label + "\n" + help) // must not panic

		reg := NewRegistry()
		reg.CounterVec("fuzz_requests_total", help, "path").With(label).Add(3)
		gauges := reg.GaugeVec("fuzz_temperature", help, "sensor")
		gauges.With(label).Set(v)
		gauges.With("deleted").Set(1)
		gauges.Delete("deleted")
		hist := reg.HistogramVec("fuzz_latency_seconds", help, []float64{0.1, 1, 10}, "scheme")
		hist.With(label).Observe(v)
		hist.With("base").Observe(0.5)
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ValidateExposition(buf.String()); err != nil {
			t.Fatalf("rendered exposition does not validate: %v\n%s", err, buf.String())
		}
		if label != "deleted" && strings.Contains(buf.String(), `sensor="deleted"`) {
			t.Fatalf("deleted gauge child still rendered:\n%s", buf.String())
		}
	})
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.Counter("test_a_total", "a")
	expectPanic("type conflict", func() { reg.Gauge("test_a_total", "a") })
	expectPanic("bad name", func() { reg.Counter("1bad-name", "x") })
	expectPanic("unsorted buckets", func() { reg.Histogram("test_h", "h", []float64{2, 1}) })
	expectPanic("label count mismatch", func() {
		cv := reg.CounterVec("test_b_total", "b", "x", "y")
		cv.With("only-one")
	})
}

// TestPhasesUnder aggregates only the root's descendants, by name, in
// first-seen order — spans outside the subtree, including a parent cycle
// in imported records, never count.
func TestPhasesUnder(t *testing.T) {
	recs := []trace.SpanRecord{
		{SpanID: "m", ParentID: "d", Name: "mcts", DurNS: 5},
		{SpanID: "d", ParentID: "root", Name: "design", DurNS: 9},
		{SpanID: "s1", ParentID: "run1", Name: "sim", DurNS: 30},
		{SpanID: "stray", ParentID: "other", Name: "sim", DurNS: 1000},
		{SpanID: "c1", ParentID: "c2", Name: "sim", DurNS: 1000},
		{SpanID: "c2", ParentID: "c1", Name: "sim", DurNS: 1000},
		{SpanID: "run1", ParentID: "root", Name: "run a"},
		{SpanID: "s2", ParentID: "root", Name: "sim", DurNS: 10},
		{SpanID: "root", Name: "sim", DurNS: 1000}, // the root itself is no descendant
	}
	got := PhasesUnder(recs, "root", "placement", "mcts", "sim")
	want := []Phase{
		{Name: "mcts", Count: 1, NS: 5, MS: 5e-6, MinNS: 5, MaxNS: 5},
		{Name: "sim", Count: 2, NS: 40, MS: 40e-6, MinNS: 10, MaxNS: 30},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PhasesUnder = %+v\nwant %+v", got, want)
	}
	if got := PhasesUnder(recs, "nowhere", "sim"); got != nil {
		t.Errorf("PhasesUnder of an absent root = %+v, want nil", got)
	}
}

func TestMiddleware(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTPMetrics(reg, "test")
	var logBuf bytes.Buffer
	logger, err := NewLogger(&logBuf, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	tracer := trace.NewTracer("test-server")
	var lastTrace *trace.Trace
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lastTrace = trace.SpanFrom(r.Context()).Trace()
		if r.URL.Path == "/missing" {
			http.NotFound(w, r)
			return
		}
		w.Write([]byte("ok"))
	})
	h := Middleware(inner, m, logger, tracer, func(r *http.Request) string {
		if r.URL.Path == "/missing" {
			return "other"
		}
		return "/v1/jobs"
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rid := resp.Header.Get(RequestIDHeader); rid == "" {
		t.Error("response missing generated X-Request-Id")
	}
	if recs := lastTrace.Records(); len(recs) != 1 || recs[0].Name != "http /v1/jobs" {
		t.Errorf("root span records = %+v, want one http /v1/jobs span", recs)
	}

	req, _ := http.NewRequest("GET", srv.URL+"/missing", nil)
	req.Header.Set(trace.TraceParentHeader, "00-11112222333344445555666677778888-aaaabbbbccccdddd-01")
	req.Header.Set(RequestIDHeader, "caller-supplied-1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "caller-supplied-1" {
		t.Errorf("X-Request-Id = %q, want caller-supplied-1 echoed", got)
	}
	if got := lastTrace.ID(); got != "11112222333344445555666677778888" {
		t.Errorf("trace ID = %q, want the caller's traceparent joined", got)
	}
	if recs := lastTrace.Records(); len(recs) != 1 || recs[0].ParentID != "aaaabbbbccccdddd" {
		t.Errorf("joined span records = %+v, want parent aaaabbbbccccdddd", recs)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if err := ValidateExposition(out); err != nil {
		t.Fatalf("middleware exposition invalid: %v\n%s", err, out)
	}
	for _, want := range []string{
		`test_http_requests_total{route="/v1/jobs",method="GET",code="200"} 1`,
		`test_http_requests_total{route="other",method="GET",code="404"} 1`,
		`test_http_request_seconds_count{route="/v1/jobs"} 1`,
		"test_http_inflight 0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics missing %q\n%s", want, out)
		}
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "requestId=caller-supplied-1") {
		t.Errorf("access log missing caller request ID:\n%s", logs)
	}
	if !strings.Contains(logs, "status=404") || !strings.Contains(logs, "route=other") {
		t.Errorf("access log missing status/route fields:\n%s", logs)
	}
}

// TestMiddlewareMethodLabelBounded: request methods outside net/http's
// names share one "other" series, so clients cannot grow the exposition
// by inventing methods; the access log keeps the raw method.
func TestMiddlewareMethodLabelBounded(t *testing.T) {
	reg := NewRegistry()
	var logBuf bytes.Buffer
	logger, err := NewLogger(&logBuf, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	h := Middleware(ok, NewHTTPMetrics(reg, "test"), logger, nil, func(*http.Request) string { return "/v1/healthz" })
	methods := []string{http.MethodGet}
	for i := 0; i < 50; i++ {
		methods = append(methods, fmt.Sprintf("M%d", i))
	}
	for _, m := range methods {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(m, "/v1/healthz", nil))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var series []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "test_http_requests_total{") {
			series = append(series, line)
		}
	}
	want := []string{
		`test_http_requests_total{route="/v1/healthz",method="GET",code="200"} 1`,
		`test_http_requests_total{route="/v1/healthz",method="other",code="200"} 50`,
	}
	if !reflect.DeepEqual(series, want) {
		t.Errorf("request series = %q, want %q", series, want)
	}
	if !strings.Contains(logBuf.String(), "method=M49") {
		t.Errorf("access log lost the raw method:\n%s", logBuf.String())
	}
}

func TestParseLevelAndLogger(t *testing.T) {
	if _, err := ParseLevel("verbose"); err == nil {
		t.Error("ParseLevel accepted unknown level")
	}
	if _, err := NewLogger(&bytes.Buffer{}, "info", "xml"); err == nil {
		t.Error("NewLogger accepted unknown format")
	}
	var buf bytes.Buffer
	logger, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("hidden")
	logger.Warn("shown", "k", "v")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("info line logged at warn level:\n%s", out)
	}
	if !strings.Contains(out, `"msg":"shown"`) || !strings.Contains(out, `"k":"v"`) {
		t.Errorf("json log missing fields:\n%s", out)
	}
	NopLogger().Info("dropped") // must not panic
}
