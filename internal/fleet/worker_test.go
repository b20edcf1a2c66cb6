package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWorkerReportsRejectedResultOnce: a coordinator that answers a result
// with a 4xx other than 410 will answer the same body the same way, so the
// worker posts it once and then reports the unit failed, once, with the
// rejection message — instead of re-posting it until it gives up and the
// unit waits out its lease.
func TestWorkerReportsRejectedResultOnce(t *testing.T) {
	var (
		mu      sync.Mutex
		posts   []CompleteRequest
		leased  bool
		failure = make(chan struct{})
	)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fleet/lease", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if leased {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		leased = true
		json.NewEncoder(w).Encode(LeaseResponse{LeaseID: "L1", TTLMillis: 60000, Unit: testUnits("job", 1)[0]}) //nolint:errcheck
	})
	mux.HandleFunc("POST /v1/fleet/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("complete body: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		posts = append(posts, req)
		if req.Error == "" {
			http.Error(w, `{"error":"fleet: result is not an evaluation document"}`, http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
		close(failure)
	})
	mux.HandleFunc("POST /v1/fleet/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}")) //nolint:errcheck
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	w, err := NewWorker(WorkerConfig{
		Coordinator: ts.URL, Name: "w1", PollInterval: 10 * time.Millisecond,
		Run: func(context.Context, Unit) ([]byte, error) { return []byte(`{"mesh":"4x4"}`), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }() //nolint:errcheck
	defer func() { cancel(); <-done }()

	select {
	case <-failure:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("no failure report; the worker posted %d completions", len(posts))
	}
	time.Sleep(50 * time.Millisecond) // a wrongly retrying worker would post again by now
	mu.Lock()
	defer mu.Unlock()
	if len(posts) != 2 || posts[0].Error != "" || posts[1].LeaseID != "L1" ||
		!strings.Contains(posts[1].Error, "not an evaluation document") {
		t.Fatalf("completions = %+v, want the result once, then the rejection as the unit's error", posts)
	}
}

// TestLocalWorkerNeitherPollsNorWaitsForHeartbeats: an in-process worker
// is handed a unit the moment it is queued, and a cancelled job's unit
// stops at once — with poll and heartbeat intervals far beyond the test.
func TestLocalWorkerNeitherPollsNorWaitsForHeartbeats(t *testing.T) {
	c := fastCoordinator(t, Config{})
	started := make(chan string, 4)
	w, err := c.LocalWorker(WorkerConfig{
		Name: "local-0", PollInterval: time.Hour, HeartbeatInterval: time.Hour,
		Run: func(ctx context.Context, u Unit) ([]byte, error) {
			started <- u.JobID
			if u.JobID == "slow" {
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return unitDocJSON(u.Scheme, u.Benchmark), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }() //nolint:errcheck
	defer func() { cancel(); <-done }()
	waitActive := time.Now().Add(5 * time.Second)
	for c.ActiveWorkers() == 0 && time.Now().Before(waitActive) {
		time.Sleep(time.Millisecond)
	}

	cl := newCollector()
	if err := c.SubmitJob("fast", Interactive, testUnits("fast", 2), cl.callbacks()); err != nil {
		t.Fatal(err)
	}
	if cl.eventCount("unit", "leased") == 0 {
		t.Error("no unit leased when SubmitJob returned; the idle worker should have been handed one")
	}
	if _, err := cl.wait(t); err != nil {
		t.Fatal(err)
	}

	if err := c.SubmitJob("slow", Interactive, testUnits("slow", 1), JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	for id := range started {
		if id == "slow" {
			break
		}
	}
	c.CancelJob("slow")
	deadline := time.Now().Add(5 * time.Second)
	for c.UnitsRunning() != 0 || w.inFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the cancelled unit is still running")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLocalWorkerSkipsUnitCancelledAtHandOff: a job cancelled after its
// unit was handed to an in-process worker but before the worker recorded
// the lease (so CancelJob found nothing to abandon) is not run.
func TestLocalWorkerSkipsUnitCancelledAtHandOff(t *testing.T) {
	c := fastCoordinator(t, Config{})
	var runs atomic.Int64
	w, err := c.LocalWorker(WorkerConfig{
		Name: "local-0", HeartbeatInterval: time.Hour,
		Run: func(ctx context.Context, u Unit) ([]byte, error) {
			runs.Add(1)
			return unitDocJSON(u.Scheme, u.Benchmark), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitJob("j", Interactive, testUnits("j", 1), JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	grant, ok, err := c.lease(ctx, w) // the hand-off, not yet in w.leases
	if !ok || err != nil {
		t.Fatalf("lease: ok=%v err=%v", ok, err)
	}
	c.CancelJob("j")
	w.execute(ctx, grant)
	if n := runs.Load(); n != 0 {
		t.Errorf("the cancelled unit ran %d times, want 0", n)
	}
	if n := c.UnitsRunning(); n != 0 {
		t.Errorf("units running = %d, want 0", n)
	}
}

// TestPermanentRunErrorFailsUnitOnce: a Run error marked Permanent reaches
// the coordinator over HTTP as a final failure: the unit fails on its first
// attempt with the error's message, and no circuit breaker counts it.
func TestPermanentRunErrorFailsUnitOnce(t *testing.T) {
	c := fastCoordinator(t, Config{MaxAttempts: 3, RetryBackoff: time.Millisecond, BreakerThreshold: 1})
	mux := http.NewServeMux()
	RegisterHandlers(mux, c, nil)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	var runs atomic.Int64
	w, err := NewWorker(WorkerConfig{
		Coordinator: ts.URL, Name: "w", PollInterval: 5 * time.Millisecond,
		Run: func(ctx context.Context, u Unit) ([]byte, error) {
			runs.Add(1)
			return nil, Permanent(errors.New("no design"))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { w.Run(ctx); close(done) }() //nolint:errcheck
	defer func() { cancel(); <-done }()

	cl := newCollector()
	if err := c.SubmitJob("bad", Interactive, testUnits("bad", 1), cl.callbacks()); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.wait(t); err == nil || err.Error() != "no design" {
		t.Fatalf("job error %v, want the run's own message", err)
	}
	if n := runs.Load(); n != 1 {
		t.Errorf("runs = %d, want 1", n)
	}
	if n := cl.eventCount("unit", "retrying"); n != 0 {
		t.Errorf("retrying events = %d, want 0", n)
	}
	if st := c.WorkerCircuitState("w"); st != int(breakerClosed) {
		t.Errorf("worker circuit %d, want closed", st)
	}
}

// inFlight counts the worker's leases still executing.
func (w *Worker) inFlight() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.leases)
}
