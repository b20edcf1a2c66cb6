package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"equinox/internal/obs"
)

// smallSpec is a sub-second sweep: one scheme, one benchmark, a small mesh.
func smallSpec() JobSpec {
	return JobSpec{
		Width: 4, Height: 4, NumCBs: 2,
		Schemes:           []string{"SingleBase"},
		Benchmarks:        []string{"kmeans"},
		InstructionsPerPE: 100,
	}
}

// slowSpec is a sweep long enough to be caught in flight: the full
// 29-benchmark suite on one scheme, 29 units.
func slowSpec() JobSpec {
	return JobSpec{
		Schemes: []string{"SingleBase"},
	}
}

// longSpec is one unit long enough to be caught in flight: one paper-scale
// run.
func longSpec() JobSpec {
	return JobSpec{
		Schemes:    []string{"SingleBase"},
		Benchmarks: []string{"kmeans"},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, spec JobSpec) (SubmitResponse, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func cancelJob(t *testing.T, ts *httptest.Server, id string) (JobStatus, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusConflict {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

func getMetrics(t *testing.T, ts *httptest.Server) map[string]int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("bad metric line %q", line)
		}
		out[fields[0]] = int64(v)
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSubmitPollCacheHit drives the acceptance path end to end: submit a
// small sweep, poll to completion, read the result, re-submit the identical
// spec (spelled differently) and observe a cache hit.
func TestSubmitPollCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	sub, code := submit(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// Queued, or already running when the idle executor took its unit
	// before the submission returned.
	if (sub.Status != JobQueued && sub.Status != JobRunning) || sub.Cached {
		t.Fatalf("submit response %+v", sub)
	}
	if sub.Runs != 1 {
		t.Fatalf("runs = %d, want 1", sub.Runs)
	}

	var st JobStatus
	waitFor(t, "job done", func() bool {
		st, _ = getJob(t, ts, sub.ID)
		return st.Status.Finished()
	})
	if st.Status != JobDone {
		t.Fatalf("final status %+v", st)
	}
	if st.Runs.Done != 1 || st.Runs.Total != 1 {
		t.Errorf("progress %+v, want 1/1", st.Runs)
	}
	if len(st.Result) == 0 {
		t.Fatal("done job carries no result")
	}
	var result struct {
		Mesh string `json:"mesh"`
		Runs []struct {
			Scheme    string  `json:"scheme"`
			Benchmark string  `json:"benchmark"`
			ExecNS    float64 `json:"execNs"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(st.Result, &result); err != nil {
		t.Fatalf("result is not evaluation JSON: %v", err)
	}
	if result.Mesh != "4x4/2CB" || len(result.Runs) != 1 || result.Runs[0].ExecNS <= 0 {
		t.Errorf("unexpected result %+v", result)
	}

	// Same sweep, different spelling: duplicated list entries, reordered.
	respelled := smallSpec()
	respelled.Benchmarks = []string{"kmeans", "kmeans"}
	again, code := submit(t, ts, respelled)
	if code != http.StatusOK {
		t.Fatalf("resubmit: %d", code)
	}
	if again.ID != sub.ID || !again.Cached || again.Status != JobDone {
		t.Fatalf("resubmit response %+v, want cached hit on %s", again, sub.ID)
	}

	m := getMetrics(t, ts)
	if m["equinox_cache_hits_total"] != 1 {
		t.Errorf("cache hits = %d, want 1", m["equinox_cache_hits_total"])
	}
	if m["equinox_jobs_submitted_total"] != 1 {
		t.Errorf("submitted = %d, want 1", m["equinox_jobs_submitted_total"])
	}
	if m["equinox_jobs_completed_total"] != 1 {
		t.Errorf("completed = %d, want 1", m["equinox_jobs_completed_total"])
	}
	if m["equinox_cache_entries"] != 1 {
		t.Errorf("cache entries = %d, want 1", m["equinox_cache_entries"])
	}
}

// TestConcurrentDedup: identical specs submitted concurrently must coalesce
// onto one job — one simulation, the rest deduped or served from cache.
func TestConcurrentDedup(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	const n = 8
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids = map[string]int{}
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub, code := submit(t, ts, slowSpec())
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("submit: %d", code)
				return
			}
			mu.Lock()
			ids[sub.ID]++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if len(ids) != 1 {
		t.Fatalf("concurrent submissions spread over %d job IDs: %v", len(ids), ids)
	}

	m := getMetrics(t, ts)
	if m["equinox_jobs_submitted_total"] != 1 {
		t.Errorf("submitted = %d, want 1", m["equinox_jobs_submitted_total"])
	}
	total := m["equinox_jobs_submitted_total"] + m["equinox_jobs_deduped_total"] + m["equinox_cache_hits_total"]
	if total != n {
		t.Errorf("submitted+deduped+hits = %d, want %d", total, n)
	}

	// Clean up the in-flight sweep so the test exits promptly.
	for id := range ids {
		cancelJob(t, ts, id)
	}
}

// TestCancelMidRun: DELETE on a running job stops it at the simulator's
// next cancellation check and releases the worker for new jobs.
func TestCancelMidRun(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	sub, code := submit(t, ts, slowSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitFor(t, "job running", func() bool {
		st, _ := getJob(t, ts, sub.ID)
		return st.Status == JobRunning
	})

	st, code := cancelJob(t, ts, sub.ID)
	if code != http.StatusOK || st.Status != JobCancelled {
		t.Fatalf("cancel: %d %+v", code, st)
	}
	// Cancelling again is idempotent.
	if _, code := cancelJob(t, ts, sub.ID); code != http.StatusOK {
		t.Errorf("second cancel: %d", code)
	}

	// The worker must come free and pick up new work.
	waitFor(t, "worker release", func() bool {
		return getMetrics(t, ts)["equinox_workers_busy"] == 0
	})
	next, code := submit(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("post-cancel submit: %d", code)
	}
	waitFor(t, "post-cancel job done", func() bool {
		st, _ := getJob(t, ts, next.ID)
		return st.Status == JobDone
	})

	m := getMetrics(t, ts)
	if m["equinox_jobs_cancelled_total"] != 1 {
		t.Errorf("cancelled = %d, want 1", m["equinox_jobs_cancelled_total"])
	}
	// A cancelled spec can be resubmitted and runs afresh.
	re, code := submit(t, ts, slowSpec())
	if code != http.StatusAccepted || re.ID != sub.ID {
		t.Fatalf("resubmit after cancel: %d %+v", code, re)
	}
	cancelJob(t, ts, re.ID)
}

// TestBadRequests: validation failures surface as 400s with a message, not
// worker crashes.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	for name, body := range map[string]string{
		"malformed JSON":    `{"width":`,
		"unknown field":     `{"wdith": 8}`,
		"unknown scheme":    `{"schemes": ["WarpSpeed"]}`,
		"unknown benchmark": `{"benchmarks": ["doom"]}`,
		"too many CBs":      `{"width": 4, "height": 4, "numCBs": 16}`,
		"negative width":    `{"width": -8, "height": 8, "numCBs": 4}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]string
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if out["error"] == "" {
			t.Errorf("%s: no error message", name)
		}
	}

	if _, code := getJob(t, ts, "nonexistent"); code != http.StatusNotFound {
		t.Errorf("GET unknown job: %d, want 404", code)
	}
	if _, code := cancelJob(t, ts, "nonexistent"); code != http.StatusNotFound {
		t.Errorf("DELETE unknown job: %d, want 404", code)
	}
}

// TestCancelFinishedConflicts: cancelling a done job is a 409.
func TestCancelFinishedConflicts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sub, _ := submit(t, ts, smallSpec())
	waitFor(t, "job done", func() bool {
		st, _ := getJob(t, ts, sub.ID)
		return st.Status.Finished()
	})
	if st, code := cancelJob(t, ts, sub.ID); code != http.StatusConflict || st.Status != JobDone {
		t.Errorf("cancel done job: %d %+v, want 409/done", code, st)
	}
}

// TestGracefulShutdownDrains: Shutdown without deadline pressure lets the
// queued job finish, and subsequent submissions are rejected.
func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub, code := submit(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	st, _ := getJob(t, ts, sub.ID)
	if st.Status != JobDone {
		t.Errorf("job after drain: %+v, want done", st)
	}
	if _, code := submit(t, ts, smallSpec()); code != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: %d, want 503", code)
	}
}

// TestShutdownDeadlineCancels: a shutdown deadline cancels in-flight work
// instead of hanging.
func TestShutdownDeadlineCancels(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sub, _ := submit(t, ts, slowSpec())
	waitFor(t, "job running", func() bool {
		st, _ := getJob(t, ts, sub.ID)
		return st.Status == JobRunning
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Error("shutdown returned nil despite expiring deadline")
	}
	st, _ := getJob(t, ts, sub.ID)
	if st.Status != JobCancelled {
		t.Errorf("job after deadline shutdown: %+v, want cancelled", st)
	}
}

// TestMetricsPrometheusExposition: /v1/metrics must be valid Prometheus text
// exposition — every family opens with well-formed # HELP/# TYPE lines, all
// legacy equinox_* names survive the registry migration, and the HTTP
// middleware's latency histogram and in-flight gauge appear after traffic.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	sub, code := submit(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitFor(t, "job done", func() bool {
		st, _ := getJob(t, ts, sub.ID)
		return st.Status.Finished()
	})

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("/v1/metrics is not valid exposition: %v\n%s", err, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}

	// Every pre-registry metric name must still be present, each with its
	// HELP/TYPE block.
	for _, name := range []string{
		"equinox_jobs_submitted_total",
		"equinox_jobs_deduped_total",
		"equinox_jobs_completed_total",
		"equinox_jobs_failed_total",
		"equinox_jobs_cancelled_total",
		"equinox_cache_hits_total",
		"equinox_cache_misses_total",
		"equinox_cache_entries",
		"equinox_workers",
		"equinox_workers_busy",
		"equinox_queue_depth",
	} {
		if !strings.Contains(body, "# HELP "+name+" ") {
			t.Errorf("missing # HELP for %s", name)
		}
		if !strings.Contains(body, "# TYPE "+name+" ") {
			t.Errorf("missing # TYPE for %s", name)
		}
	}

	// The submit + polls above were real traffic through the middleware: the
	// request-latency histogram and in-flight gauge must show it. This GET
	// of /v1/metrics itself is in flight while the registry renders.
	for _, want := range []string{
		`equinox_http_requests_total{route="/v1/jobs",method="POST",code="202"} 1`,
		`equinox_http_request_seconds_count{route="/v1/jobs"} 1`,
		`equinox_http_request_seconds_bucket{route="/v1/jobs",le="+Inf"} 1`,
		"equinox_http_inflight 1",
		`equinox_job_queue_wait_seconds_count 1`,
	} {
		if !strings.Contains(body, want+"\n") {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}

	m := getMetrics(t, ts)
	if m["equinox_workers"] != 1 || m["equinox_jobs_completed_total"] != 1 {
		t.Errorf("workers=%d completed=%d, want 1/1", m["equinox_workers"], m["equinox_jobs_completed_total"])
	}
}

// TestJobLifecycleLogs: each job state transition emits one structured log
// line carrying the job-scoped attributes, the cache disposition, and the
// queue wait.
func TestJobLifecycleLogs(t *testing.T) {
	var buf syncBuffer
	logger, err := obs.NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Logger: logger})

	sub, _ := submit(t, ts, smallSpec())
	waitFor(t, "job done", func() bool {
		st, _ := getJob(t, ts, sub.ID)
		return st.Status.Finished()
	})
	if again, _ := submit(t, ts, smallSpec()); !again.Cached {
		t.Fatalf("resubmit not cached: %+v", again)
	}

	type line struct {
		Msg        string  `json:"msg"`
		JobID      string  `json:"jobId"`
		State      string  `json:"state"`
		Cache      string  `json:"cache"`
		Schemes    string  `json:"schemes"`
		Benchmarks int     `json:"benchmarks"`
		QueueWait  float64 `json:"queueWaitMs"`
		RunMS      float64 `json:"runMs"`
	}
	events := map[string]line{}
	for _, raw := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(raw), &l); err != nil {
			t.Fatalf("non-JSON log line %q: %v", raw, err)
		}
		if strings.HasPrefix(l.Msg, "job ") {
			events[l.Msg] = l
		}
	}
	for msg, wantState := range map[string]string{
		"job submitted": "queued",
		"job started":   "running",
		"job completed": "done",
		"job cache hit": "done",
	} {
		l, ok := events[msg]
		if !ok {
			t.Errorf("no %q log line; got events %v", msg, events)
			continue
		}
		if l.JobID != sub.ID {
			t.Errorf("%s: jobId %q, want %q", msg, l.JobID, sub.ID)
		}
		if l.State != wantState {
			t.Errorf("%s: state %q, want %q", msg, l.State, wantState)
		}
		if l.Schemes != "SingleBase" || l.Benchmarks != 1 {
			t.Errorf("%s: job attrs schemes=%q benchmarks=%d", msg, l.Schemes, l.Benchmarks)
		}
	}
	if l := events["job submitted"]; l.Cache != "miss" {
		t.Errorf("submitted line cache=%q, want miss", l.Cache)
	}
	if l := events["job cache hit"]; l.Cache != "hit" {
		t.Errorf("cache-hit line cache=%q, want hit", l.Cache)
	}
	if l := events["job started"]; l.QueueWait < 0 {
		t.Errorf("started line queueWaitMs=%v, want >= 0", l.QueueWait)
	}
	if l := events["job completed"]; l.RunMS <= 0 {
		t.Errorf("completed line runMs=%v, want > 0", l.RunMS)
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the server logs from worker
// goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
