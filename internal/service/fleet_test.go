package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"equinox/internal/fleet"
	"equinox/internal/fleet/store"
	"equinox/internal/obs"
)

// shardSpec is a 4-unit sweep (2 schemes × 2 benchmarks) small enough to
// finish in seconds but wide enough to shard meaningfully.
func shardSpec() JobSpec {
	return JobSpec{
		Width: 4, Height: 4, NumCBs: 2,
		Schemes:           []string{"SingleBase", "EquiNox"},
		Benchmarks:        []string{"bfs", "kmeans"},
		InstructionsPerPE: 100,
	}
}

// singleProcessCanonical runs the spec in-process and returns its
// canonical evaluation document.
func singleProcessCanonical(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := RunSpec(context.Background(), raw, 2)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := fleet.CanonicalResult(doc)
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// remoteOnly stops the server's in-process executors once they have
// registered, so every unit queued from then on goes to remote workers and
// crosses the HTTP protocol. Call it before any remote worker registers.
func remoteOnly(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, "executors registered", func() bool {
		return s.coord.ActiveWorkers() >= s.cfg.Workers
	})
	s.stopExecute()
	s.executors.Wait()
}

// startFleetWorkers runs n in-process fleet workers that lease from the
// server over HTTP and blocks until the coordinator sees them beside its
// own executors. The returned counter counts the units they ran.
func startFleetWorkers(t *testing.T, s *Server, ts *httptest.Server, n int) *atomic.Int64 {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var ran atomic.Int64
	for i := 0; i < n; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator:       ts.URL,
			Name:              fmt.Sprintf("testworker-%d", i),
			PollInterval:      10 * time.Millisecond,
			HeartbeatInterval: 25 * time.Millisecond,
			Run: func(ctx context.Context, u fleet.Unit) ([]byte, error) {
				ran.Add(1)
				return RunSpec(ctx, u.Spec, 1)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(ctx) //nolint:errcheck
	}
	waitFor(t, "fleet workers registered", func() bool {
		return s.coord.ActiveWorkers() >= s.cfg.Workers+n
	})
	return &ran
}

// fetchResult polls the job to completion and returns its canonical
// result document.
func fetchResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	var st JobStatus
	waitFor(t, "job "+id+" done", func() bool {
		st, _ = getJob(t, ts, id)
		return st.Status.Finished()
	})
	if st.Status != JobDone {
		t.Fatalf("job finished as %s (error: %s)", st.Status, st.Error)
	}
	if len(st.Result) == 0 {
		t.Fatal("done job carries no result")
	}
	canon, err := fleet.CanonicalResult(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// TestShardedSweepMatchesSingleProcess is the fleet's core equivalence
// guarantee: a sweep sharded across two workers assembles to the exact
// canonical bytes of a single-process run of the same spec.
func TestShardedSweepMatchesSingleProcess(t *testing.T) {
	want := singleProcessCanonical(t, shardSpec())

	s, ts := newTestServer(t, Config{Workers: 1})
	remoteOnly(t, s)
	ran := startFleetWorkers(t, s, ts, 2)

	sub, code := submit(t, ts, shardSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	// Queued until a polling worker leases the first unit.
	if sub.Status != JobQueued && sub.Status != JobRunning {
		t.Fatalf("sharded submit status %s, want queued or running", sub.Status)
	}
	got := fetchResult(t, ts, sub.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded result differs from single-process run:\n--- sharded ---\n%s\n--- single ---\n%s", got, want)
	}
	if n := ran.Load(); n != 4 {
		t.Errorf("remote workers ran %d units, want 4", n)
	}

	m := getMetrics(t, ts)
	if m["equinox_fleet_jobs_sharded_total"] != 1 {
		t.Errorf("jobs sharded = %d, want 1", m["equinox_fleet_jobs_sharded_total"])
	}
	if m["equinox_fleet_units_completed_total"] != 4 {
		t.Errorf("units completed = %d, want 4", m["equinox_fleet_units_completed_total"])
	}
	if m["equinox_jobs_completed_total"] != 1 {
		t.Errorf("jobs completed = %d, want 1", m["equinox_jobs_completed_total"])
	}

	// Unit results landed in the shared store: a second overlapping sweep
	// completes from cache hits without touching a worker.
	overlap := shardSpec()
	overlap.Benchmarks = []string{"bfs"}
	sub2, _ := submit(t, ts, overlap)
	got2 := fetchResult(t, ts, sub2.ID)
	want2 := singleProcessCanonical(t, overlap)
	if !bytes.Equal(got2, want2) {
		t.Fatal("overlapping sweep result differs from single-process run")
	}
	if hits := getMetrics(t, ts)["equinox_fleet_unit_cache_hits_total"]; hits != 2 {
		t.Errorf("unit cache hits = %d, want 2", hits)
	}
}

// TestWorkerCrashRecovery kills a worker mid-unit and asserts the lease
// expires, the unit is re-leased to a healthy worker, and the final
// document is still byte-identical to a single-process run.
func TestWorkerCrashRecovery(t *testing.T) {
	want := singleProcessCanonical(t, shardSpec())

	s, ts := newTestServer(t, Config{
		Workers: 1,
		Fleet: fleet.Config{
			LeaseTTL:      300 * time.Millisecond,
			WorkerTTL:     10 * time.Second,
			SweepInterval: 20 * time.Millisecond,
			RetryBackoff:  10 * time.Millisecond,
		},
	})
	remoteOnly(t, s)

	// The "crashy" worker registers, leases one unit, and dies without
	// completing or heartbeating.
	hb, err := json.Marshal(fleet.HeartbeatRequest{Worker: "crashy"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/fleet/heartbeat", "application/json", bytes.NewReader(hb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sub, code := submit(t, ts, shardSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	lease, err := json.Marshal(fleet.LeaseRequest{Worker: "crashy"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/fleet/lease", "application/json", bytes.NewReader(lease))
	if err != nil {
		t.Fatal(err)
	}
	var grant fleet.LeaseResponse
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("crashy lease: %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Healthy workers pick up the rest — and, after the TTL, the
	// crashed worker's unit.
	ran := startFleetWorkers(t, s, ts, 2)

	got := fetchResult(t, ts, sub.ID)
	if !bytes.Equal(got, want) {
		t.Fatal("post-crash result differs from single-process run")
	}
	if n := ran.Load(); n < 4 {
		t.Errorf("healthy workers ran %d units, want >= 4 (three fresh, one re-leased)", n)
	}
	m := getMetrics(t, ts)
	if m["equinox_fleet_leases_expired_total"] < 1 {
		t.Errorf("leases expired = %d, want >= 1", m["equinox_fleet_leases_expired_total"])
	}
	if m["equinox_fleet_units_retried_total"] < 1 {
		t.Errorf("units retried = %d, want >= 1", m["equinox_fleet_units_retried_total"])
	}
	// The dead lease's completion is rejected.
	stale, err := json.Marshal(fleet.CompleteRequest{LeaseID: grant.LeaseID, Error: "late"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/fleet/complete", "application/json", bytes.NewReader(stale))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Errorf("stale complete: %d, want 410", resp.StatusCode)
	}
}

// sseEventRecord is one parsed server-sent event.
type sseEventRecord struct {
	name string
	ev   fleet.Event
}

// readSSE consumes the stream until EOF, parsing each event.
func readSSE(t *testing.T, ts *httptest.Server, id string) []sseEventRecord {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q", ct)
	}
	var out []sseEventRecord
	var name string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var ev fleet.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatalf("bad SSE payload %q: %v", line, err)
			}
			out = append(out, sseEventRecord{name: name, ev: ev})
		}
	}
	return out
}

// TestSSEStreamsShardedJob subscribes to a sharded job's event stream and
// asserts unit completions and the terminal event arrive, then the stream
// ends.
func TestSSEStreamsShardedJob(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	remoteOnly(t, s)
	startFleetWorkers(t, s, ts, 1)

	sub, code := submit(t, ts, shardSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	events := readSSE(t, ts, sub.ID) // returns only when the hub closes
	var unitDone, terminal int
	var last sseEventRecord
	for _, e := range events {
		if e.name == "unit" && e.ev.Status == "completed" {
			unitDone++
			if e.ev.Total != 4 || e.ev.Done < 1 || e.ev.Done > 4 {
				t.Errorf("unit event progress %d/%d", e.ev.Done, e.ev.Total)
			}
			if e.ev.Scheme == "" || e.ev.Benchmark == "" || e.ev.UnitKey == "" {
				t.Errorf("unit event missing identity: %+v", e.ev)
			}
		}
		if e.name == "job" {
			terminal++
		}
		last = e
	}
	if unitDone != 4 {
		t.Errorf("unit-completed events = %d, want 4", unitDone)
	}
	if terminal != 1 || last.name != "job" || last.ev.Status != string(JobDone) {
		t.Errorf("stream must end with one terminal job event, got %d (last %+v)", terminal, last)
	}

	// A late subscriber replays the full history.
	replay := readSSE(t, ts, sub.ID)
	if len(replay) != len(events) {
		t.Errorf("replay returned %d events, live stream %d", len(replay), len(events))
	}
}

// TestSSEStreamsLocalJob: a job run by the in-process executor streams the
// same unit events a sharded one does — its unit's grant and completion —
// and then the terminal event.
func TestSSEStreamsLocalJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sub, code := submit(t, ts, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	events := readSSE(t, ts, sub.ID)
	var names []string
	for _, e := range events {
		names = append(names, e.name+"/"+e.ev.Status)
		if e.name == "unit" && (e.ev.Total != 1 || e.ev.UnitKey != sub.ID) {
			t.Errorf("unit event %+v, want the job's one unit, keyed by the job's id", e.ev)
		}
	}
	if got, want := strings.Join(names, " "), "unit/leased unit/completed job/done"; got != want {
		t.Errorf("events %q, want %q", got, want)
	}
}

// TestRestartServedFromDiskStore: a job's result survives a full server
// restart via the persistent store — the re-POST is answered from cache
// without re-simulation.
func TestRestartServedFromDiskStore(t *testing.T) {
	dir := t.TempDir()

	disk, err := store.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, Store: disk})
	ts1 := httptest.NewServer(s1.Handler())
	sub, code := submit(t, ts1, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitFor(t, "job done", func() bool {
		st, _ := getJob(t, ts1, sub.ID)
		return st.Status.Finished()
	})
	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh process opens the same directory.
	disk2, err := store.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	_, ts2 := newTestServer(t, Config{Workers: 1, Store: disk2})

	start := time.Now()
	again, code := submit(t, ts2, smallSpec())
	elapsed := time.Since(start)
	if code != http.StatusOK {
		t.Fatalf("re-POST after restart: %d", code)
	}
	if !again.Cached || again.Status != JobDone || again.ID != sub.ID {
		t.Fatalf("re-POST not served from store: %+v", again)
	}
	// Served from disk, not re-simulated: answered in milliseconds, the
	// cache-hit counter moved, and nothing was enqueued.
	if elapsed > 5*time.Second {
		t.Errorf("cached re-POST took %v", elapsed)
	}
	m := getMetrics(t, ts2)
	if m["equinox_cache_hits_total"] != 1 {
		t.Errorf("cache hits after restart = %d, want 1", m["equinox_cache_hits_total"])
	}
	if m["equinox_jobs_submitted_total"] != 0 {
		t.Errorf("jobs submitted after restart = %d, want 0", m["equinox_jobs_submitted_total"])
	}

	// The result itself is retrievable too.
	st, code := getJob(t, ts2, sub.ID)
	if code != http.StatusOK || len(st.Result) == 0 {
		t.Fatalf("GET after restart: %d (result %d bytes)", code, len(st.Result))
	}
}

// TestCancelQueuedRemovesFromQueue: DELETE on a queued job frees its unit
// queue slot immediately and logs the cancellation.
func TestCancelQueuedRemovesFromQueue(t *testing.T) {
	var buf syncBuffer
	logger, err := obs.NewLogger(&buf, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Logger: logger})

	// Occupy the only executor, then queue a second job behind it.
	running, _ := submit(t, ts, longSpec())
	waitFor(t, "first job running", func() bool {
		st, _ := getJob(t, ts, running.ID)
		return st.Status == JobRunning
	})
	queued, code := submit(t, ts, smallSpec())
	if code != http.StatusAccepted || queued.Status != JobQueued {
		t.Fatalf("second submit: %d %+v, want 202 queued", code, queued)
	}
	if n := s.queuedUnits(); n != 1 {
		t.Fatalf("queued units = %d, want 1", n)
	}

	st, code := cancelJob(t, ts, queued.ID)
	if code != http.StatusOK || st.Status != JobCancelled {
		t.Fatalf("cancel queued: %d %+v", code, st)
	}
	// Gone from the queue right now — not when an executor reaches it.
	if n := s.queuedUnits(); n != 0 {
		t.Fatalf("queued units after cancel = %d, want 0", n)
	}
	if !strings.Contains(buf.String(), `"msg":"job cancelled"`) {
		t.Error("no 'job cancelled' log line")
	}
	cancelJob(t, ts, running.ID)
}

// TestPriorityExcludedFromKey: the same sweep at different priorities is
// one job (one content key); an invalid priority is rejected.
func TestPriorityExcludedFromKey(t *testing.T) {
	a := smallSpec()
	a.Priority = "interactive"
	b := smallSpec()
	b.Priority = "batch"
	ka, err := a.Key()
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.Key()
	if err != nil {
		t.Fatal(err)
	}
	kc, err := smallSpec().Key()
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb || kb != kc {
		t.Fatalf("priority changed the content key: %s %s %s", ka, kb, kc)
	}
	bad := smallSpec()
	bad.Priority = "urgent"
	if _, err := bad.Canonicalize(); err == nil {
		t.Fatal("invalid priority accepted")
	}

	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"priority": "urgent"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad priority over HTTP: %d, want 400", resp.StatusCode)
	}
}

// TestParallelExcludedFromKey is the compatibility contract of the retired
// "parallel" field. It once selected an intra-simulation parallel stepper;
// old clients still send it and old journals still hold it, so it is
// accepted and range-checked, never part of the job's identity, and gone
// from every canonical and unit spec.
func TestParallelExcludedFromKey(t *testing.T) {
	want, err := smallSpec().Key()
	if err != nil {
		t.Fatal(err)
	}
	withParallel := func(spec JobSpec, parallel int) string {
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		doc["parallel"] = parallel
		if raw, err = json.Marshal(doc); err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}

	_, ts := newTestServer(t, Config{Workers: 1})
	post := func(body string) (SubmitResponse, int) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out SubmitResponse
		json.NewDecoder(resp.Body).Decode(&out)
		return out, resp.StatusCode
	}
	sub, code := post(withParallel(smallSpec(), 4))
	if code != http.StatusAccepted {
		t.Fatalf(`"parallel": 4 over HTTP: %d, want 202`, code)
	}
	if sub.ID != want {
		t.Fatalf("parallel changed the content key: %s vs %s", sub.ID, want)
	}
	if _, code := post(withParallel(smallSpec(), -1)); code != http.StatusBadRequest {
		t.Errorf(`"parallel": -1 over HTTP: %d, want 400`, code)
	}

	a := smallSpec()
	a.Parallel = 4
	canon, err := a.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(canon)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"parallel"`) {
		t.Errorf("canonical spec still carries parallel: %s", raw)
	}
	units, err := unitsFor("job", canon)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		if strings.Contains(string(u.Spec), `"parallel"`) {
			t.Errorf("unit spec still carries parallel: %s", u.Spec)
		}
	}

	// A journal written before the field was retired: the pending job's
	// canonical spec holds "parallel":4 and must replay to a finished job
	// under its recorded id.
	old := smallSpec()
	old.Seed = 7
	oldCanon, err := old.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	oldKey, err := keyOf(oldCanon)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	j1 := openTestJournal(t, dir)
	j1.Submit(oldKey, json.RawMessage(withParallel(oldCanon, 4)))
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newTestServer(t, Config{Workers: 1, Journal: openTestJournal(t, dir)})
	waitFor(t, "journaled job replayed", func() bool {
		st, code := getJob(t, ts2, oldKey)
		return code == http.StatusOK && st.Status.Finished()
	})
	if st, _ := getJob(t, ts2, oldKey); st.Status != JobDone {
		t.Fatalf("replayed job ended %s, want %s", st.Status, JobDone)
	}
}

// TestSweepUnitsKeepJobDocuments: a memory-only server keeps a sweep's unit
// results apart from job documents, so a sweep with more units than
// CacheEntries does not evict an earlier job (whose GET would then 404).
func TestSweepUnitsKeepJobDocuments(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 2})
	first, _ := submit(t, ts, smallSpec())
	fetchResult(t, ts, first.ID)
	sweep, _ := submit(t, ts, shardSpec()) // 4 units
	fetchResult(t, ts, sweep.ID)
	if st, code := getJob(t, ts, first.ID); code != http.StatusOK || st.Status != JobDone || len(st.Result) == 0 {
		t.Fatalf("first job after a 4-unit sweep: %d %s (result %d bytes), want 200 done with its result",
			code, st.Status, len(st.Result))
	}
}

// TestJobRecordsBoundedWithDiskStore: with a persistent tier, evicting a
// job document from memory still forgets the finished job, so job records
// (with their artifacts and event history) stay bounded by CacheEntries,
// while a forgotten job's GET still answers 200 from the disk.
func TestJobRecordsBoundedWithDiskStore(t *testing.T) {
	disk, err := store.OpenDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: 2, Store: disk})
	var ids []string
	for seed := int64(1); seed <= 6; seed++ {
		spec := smallSpec()
		spec.Seed = seed
		sub, _ := submit(t, ts, spec)
		fetchResult(t, ts, sub.ID)
		ids = append(ids, sub.ID)
	}
	s.mu.Lock()
	records := len(s.jobs)
	s.mu.Unlock()
	if records != 2 {
		t.Errorf("%d job records after 6 finished jobs, want 2 (CacheEntries)", records)
	}
	if st, code := getJob(t, ts, ids[0]); code != http.StatusOK || st.Status != JobDone || len(st.Result) == 0 {
		t.Fatalf("forgotten job: %d %s (result %d bytes), want 200 done from disk", code, st.Status, len(st.Result))
	}
	if m := getMetrics(t, ts); m["equinox_cache_entries"] != 6 {
		t.Errorf("equinox_cache_entries = %d, want 6 (the disk tier)", m["equinox_cache_entries"])
	}
}

// TestCacheBytesExported: the byte-size gauge reflects stored results.
func TestCacheBytesExported(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	sub, _ := submit(t, ts, smallSpec())
	waitFor(t, "job done", func() bool {
		st, _ := getJob(t, ts, sub.ID)
		return st.Status.Finished()
	})
	m := getMetrics(t, ts)
	if m["equinox_cache_bytes"] <= 0 {
		t.Errorf("equinox_cache_bytes = %d, want > 0", m["equinox_cache_bytes"])
	}
	if m["equinox_cache_entries"] != 1 {
		t.Errorf("equinox_cache_entries = %d, want 1", m["equinox_cache_entries"])
	}
}
