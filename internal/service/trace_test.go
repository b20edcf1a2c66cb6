package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"equinox/internal/fleet"
	"equinox/internal/obs"
	obstrace "equinox/internal/obs/trace"
)

// startTracedWorkers is startFleetWorkers with a per-worker Tracer, so the
// workers join the coordinator's traces and ship their spans back.
func startTracedWorkers(t *testing.T, s *Server, ts *httptest.Server, n int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("traced-%d", i)
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator:       ts.URL,
			Name:              name,
			PollInterval:      10 * time.Millisecond,
			HeartbeatInterval: 25 * time.Millisecond,
			Tracer:            obstrace.NewTracer(name),
			Run: func(ctx context.Context, u fleet.Unit) ([]byte, error) {
				return RunSpec(ctx, u.Spec, 1)
			},
		})
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		go w.Run(ctx) //nolint:errcheck
	}
	waitFor(t, "traced fleet workers registered", func() bool {
		return s.coord.ActiveWorkers() >= s.cfg.Workers+n
	})
	t.Cleanup(cancel)
}

// spanEnvelope is the Perfetto trace-event document GET /spans serves.
type spanEnvelope struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Dur  int64          `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	OtherData struct {
		TraceID string `json:"traceId"`
		Spans   int    `json:"spans"`
	} `json:"otherData"`
}

// fetchSpans downloads and parses a finished job's span trace.
func fetchSpans(t *testing.T, ts *httptest.Server, id string) spanEnvelope {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /spans: %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("spans Content-Type %q", ct)
	}
	var env spanEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("span trace is not well-formed trace-event JSON: %v", err)
	}
	return env
}

// TestSSEAnnouncesSpansAndServesStitchedTrace shards a sweep across two
// traced workers, asserts the terminal SSE event announces span
// availability, and checks the served trace stitches coordinator and worker
// spans under one trace ID.
func TestSSEAnnouncesSpansAndServesStitchedTrace(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	remoteOnly(t, s)
	startTracedWorkers(t, s, ts, 2)

	sub, code := submit(t, ts, shardSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	events := readSSE(t, ts, sub.ID)
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	last := events[len(events)-1]
	if last.name != "job" || last.ev.Status != string(JobDone) {
		t.Fatalf("terminal event %+v", last)
	}
	if !last.ev.Spans {
		t.Fatal("terminal job event does not announce span availability")
	}

	env := fetchSpans(t, ts, sub.ID)
	if len(env.OtherData.TraceID) != 32 {
		t.Errorf("trace ID %q, want 32 hex chars", env.OtherData.TraceID)
	}
	if env.OtherData.Spans != len(env.TraceEvents)-countMeta(env) {
		t.Errorf("otherData.spans = %d, complete events = %d",
			env.OtherData.Spans, len(env.TraceEvents)-countMeta(env))
	}
	nodes := map[string]bool{}
	names := map[string]int{}
	var units, roundTrips int
	for _, ev := range env.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				if n, _ := ev.Args["name"].(string); n != "" {
					nodes[n] = true
				}
			}
		case "X":
			if ev.Name == "" || ev.Dur < 1 {
				t.Errorf("malformed span event %+v", ev)
			}
			names[ev.Name]++
			if strings.HasPrefix(ev.Name, "unit ") {
				units++
			}
			if ev.Name == "complete round-trip" {
				roundTrips++
			}
		default:
			t.Errorf("unexpected trace-event phase %q", ev.Ph)
		}
	}
	if !nodes["coordinator"] {
		t.Errorf("no coordinator process in trace (nodes %v)", nodes)
	}
	if !nodes["traced-0"] && !nodes["traced-1"] {
		t.Errorf("no worker process in trace (nodes %v)", nodes)
	}
	if units != 4 {
		t.Errorf("unit spans = %d, want 4", units)
	}
	if roundTrips < 1 {
		t.Error("no synthesized complete round-trip spans")
	}
	for _, want := range []string{"http /v1/jobs", "job", "lease wait"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span (names %v)", want, names)
		}
	}
}

func countMeta(env spanEnvelope) int {
	n := 0
	for _, ev := range env.TraceEvents {
		if ev.Ph == "M" {
			n++
		}
	}
	return n
}

// TestSpansEndpointStatusCodes covers the /spans error surface: unknown
// jobs 404, unfinished jobs 409, and tail-sampled-out jobs 404.
func TestSpansEndpointStatusCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		// Every test job is far faster than an hour, so tail sampling with
		// no fast-lane sample rate drops every trace.
		TraceTail: time.Hour,
	})
	resp, err := http.Get(ts.URL + "/v1/jobs/nope/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job spans: %d, want 404", resp.StatusCode)
	}

	sub, _ := submit(t, ts, smallSpec())
	waitFor(t, "job done", func() bool {
		st, _ := getJob(t, ts, sub.ID)
		return st.Status.Finished()
	})
	resp, err = http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("tail-sampled-out spans: %d, want 404", resp.StatusCode)
	}
}

// TestMetricsExpositionLiveFull round-trips the full live /v1/metrics
// document through the exposition validator with every subsystem exercised:
// fleet sharding and distributed tracing.
func TestMetricsExpositionLiveFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	startTracedWorkers(t, s, ts, 2)

	sub, code := submit(t, ts, shardSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitFor(t, "sharded job done", func() bool {
		st, _ := getJob(t, ts, sub.ID)
		return st.Status.Finished()
	})

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(body)
	if err := obs.ValidateExposition(doc); err != nil {
		t.Fatalf("live /v1/metrics fails exposition validation: %v\n%s", err, doc)
	}
	for _, want := range []string{
		"equinox_trace_spans_total",
		"equinox_trace_dropped_spans_total",
		"equinox_fleet_unit_duration_seconds_bucket",
		"equinox_fleet_units_completed_total",
		"equinox_chaos_injected_total",
		"equinox_admission_rejected_total",
		"equinox_worker_circuit_state",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("live exposition is missing %s", want)
		}
	}
	for _, want := range readmeMetrics(t) {
		if !strings.Contains(doc, "# TYPE "+want+" ") {
			t.Errorf("README's metrics table lists %s, but the live exposition has no such family", want)
		}
	}
	m := getMetrics(t, ts)
	if m["equinox_trace_spans_total"] < 10 {
		t.Errorf("trace spans total = %d, want a stitched trace's worth", m["equinox_trace_spans_total"])
	}
	if m["equinox_trace_dropped_spans_total"] != 0 {
		t.Errorf("dropped spans = %d, want 0", m["equinox_trace_dropped_spans_total"])
	}
}

// readmeMetrics returns every full metric name in the first column of
// README's metrics table, label lists stripped.
func readmeMetrics(t *testing.T) []string {
	t.Helper()
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile("`(equinox_[a-z_]+)")
	var names []string
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "| `equinox_") {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(strings.Split(line, "|")[1], -1) {
			names = append(names, m[1])
		}
	}
	if len(names) < 10 {
		t.Fatalf("found only %d metric names in README's table: %v", len(names), names)
	}
	return names
}
