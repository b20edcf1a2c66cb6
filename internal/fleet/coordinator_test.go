package fleet

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"equinox/internal/fleet/store"
	"equinox/internal/obs"
)

// unitDocJSON fabricates a minimal single-run evaluation document.
func unitDocJSON(scheme, bench string) []byte {
	return []byte(fmt.Sprintf(
		`{"mesh":"4x4","runs":[{"scheme":%q,"benchmark":%q,"execCycles":100}]}`,
		scheme, bench))
}

func testUnits(jobID string, n int) []Unit {
	units := make([]Unit, n)
	for i := range units {
		units[i] = Unit{
			JobID:     jobID,
			Key:       fmt.Sprintf("%s-key-%d", jobID, i),
			Scheme:    fmt.Sprintf("Scheme%d", i),
			Benchmark: "bench",
			Spec:      json.RawMessage(`{}`),
		}
	}
	return units
}

// collector gathers job callbacks for assertions.
type collector struct {
	mu     sync.Mutex
	events []Event
	result []byte
	err    error
	done   chan struct{}
}

func newCollector() *collector { return &collector{done: make(chan struct{})} }

func (cl *collector) callbacks() JobCallbacks {
	return JobCallbacks{
		OnEvent: func(ev Event) {
			cl.mu.Lock()
			cl.events = append(cl.events, ev)
			cl.mu.Unlock()
		},
		OnDone: func(result []byte, err error) {
			cl.mu.Lock()
			cl.result, cl.err = result, err
			cl.mu.Unlock()
			close(cl.done)
		},
	}
}

func (cl *collector) wait(t *testing.T) ([]byte, error) {
	t.Helper()
	select {
	case <-cl.done:
	case <-time.After(10 * time.Second):
		t.Fatal("job did not finish")
	}
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.result, cl.err
}

func (cl *collector) eventCount(typ, status string) int {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	n := 0
	for _, ev := range cl.events {
		if ev.Type == typ && (status == "" || ev.Status == status) {
			n++
		}
	}
	return n
}

func fastCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 5 * time.Second
	}
	if cfg.SweepInterval == 0 {
		cfg.SweepInterval = 10 * time.Millisecond
	}
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	return c
}

func TestCoordinatorLeaseCompleteAssemble(t *testing.T) {
	c := fastCoordinator(t, Config{})
	cl := newCollector()
	units := testUnits("job1", 3)
	if err := c.SubmitJob("job1", Interactive, units, cl.callbacks()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		grant, ok := c.Lease("w1")
		if !ok {
			t.Fatalf("lease %d: no unit", i)
		}
		doc := unitDocJSON(grant.Unit.Scheme, grant.Unit.Benchmark)
		if err := c.Complete(grant.LeaseID, doc, "", nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	result, err := cl.wait(t)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs []struct {
			Scheme string `json:"scheme"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(result, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 3 {
		t.Fatalf("assembled %d runs, want 3", len(doc.Runs))
	}
	// Runs must come out sorted by scheme regardless of completion order.
	for i := 1; i < len(doc.Runs); i++ {
		if doc.Runs[i-1].Scheme > doc.Runs[i].Scheme {
			t.Fatalf("runs not sorted: %v", doc.Runs)
		}
	}
	if got := cl.eventCount("unit", "completed"); got != 3 {
		t.Fatalf("completed events: %d want 3", got)
	}
	if c.ActiveWorkers() != 1 {
		t.Fatalf("active workers: %d", c.ActiveWorkers())
	}
}

func TestCoordinatorStoreHitSkipsExecution(t *testing.T) {
	st := store.NewMemory(16, 0)
	key := "jobS-key-0"
	st.Put(key, unitDocJSON("Scheme0", "bench"))
	c := fastCoordinator(t, Config{Store: st})
	cl := newCollector()
	units := testUnits("jobS", 2)
	if err := c.SubmitJob("jobS", Batch, units, cl.callbacks()); err != nil {
		t.Fatal(err)
	}
	if got := cl.eventCount("cache", ""); got != 1 {
		t.Fatalf("cache events: %d want 1", got)
	}
	// Only the uncached unit should be leasable.
	grant, ok := c.Lease("w1")
	if !ok {
		t.Fatal("no unit to lease")
	}
	if grant.Unit.Key != "jobS-key-1" {
		t.Fatalf("leased cached unit %s", grant.Unit.Key)
	}
	if _, ok := c.Lease("w1"); ok {
		t.Fatal("second lease should find nothing")
	}
	if err := c.Complete(grant.LeaseID, unitDocJSON(grant.Unit.Scheme, grant.Unit.Benchmark), "", nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.wait(t); err != nil {
		t.Fatal(err)
	}
	// The completed unit was written back to the store.
	if _, ok := st.Get("jobS-key-1"); !ok {
		t.Fatal("completed unit not written to store")
	}
}

func TestCoordinatorLeaseExpiryRequeues(t *testing.T) {
	c := fastCoordinator(t, Config{
		LeaseTTL:      40 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
		RetryBackoff:  time.Millisecond,
	})
	cl := newCollector()
	if err := c.SubmitJob("jobE", Interactive, testUnits("jobE", 1), cl.callbacks()); err != nil {
		t.Fatal(err)
	}
	grant, ok := c.Lease("crashy")
	if !ok {
		t.Fatal("no unit")
	}
	// "Crash": never complete, never heartbeat. The unit must come back.
	var regrant LeaseResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("unit never re-leased after expiry")
		}
		if g, ok := c.Lease("healthy"); ok {
			regrant = g
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if regrant.Unit.Key != grant.Unit.Key {
		t.Fatalf("re-leased wrong unit %s", regrant.Unit.Key)
	}
	// Completing with the dead lease is rejected.
	if err := c.Complete(grant.LeaseID, nil, "", nil, nil); err != ErrUnknownLease {
		t.Fatalf("stale complete: %v", err)
	}
	if err := c.Complete(regrant.LeaseID, unitDocJSON("Scheme0", "bench"), "", nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.wait(t); err != nil {
		t.Fatal(err)
	}
	if got := cl.eventCount("unit", "retrying"); got < 1 {
		t.Fatal("expected a retrying event for the expired lease")
	}
}

func TestCoordinatorHeartbeatKeepsLeaseAlive(t *testing.T) {
	c := fastCoordinator(t, Config{
		LeaseTTL:      50 * time.Millisecond,
		SweepInterval: 10 * time.Millisecond,
	})
	cl := newCollector()
	if err := c.SubmitJob("jobH", Interactive, testUnits("jobH", 1), cl.callbacks()); err != nil {
		t.Fatal(err)
	}
	grant, ok := c.Lease("w1")
	if !ok {
		t.Fatal("no unit")
	}
	// Heartbeat for 4 TTLs; the lease must survive.
	for i := 0; i < 8; i++ {
		time.Sleep(25 * time.Millisecond)
		if canceled := c.Heartbeat("w1", []string{grant.LeaseID}); len(canceled) != 0 {
			t.Fatalf("lease canceled at heartbeat %d: %v", i, canceled)
		}
	}
	if err := c.Complete(grant.LeaseID, unitDocJSON("Scheme0", "bench"), "", nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.wait(t); err != nil {
		t.Fatal(err)
	}

	// Heartbeats renew a lease's expiry, never its grant time: lease age
	// and unit duration are measured from the grant. On a skewed clock:
	// lease, +10 s, heartbeat, +1 s.
	var skewNS atomic.Int64
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	c = fastCoordinator(t, Config{
		LeaseTTL: time.Minute,
		Now:      func() time.Time { return time.Now().Add(time.Duration(skewNS.Load())) },
		Metrics:  met,
	})
	cl = newCollector()
	if err := c.SubmitJob("jobG", Interactive, testUnits("jobG", 1), cl.callbacks()); err != nil {
		t.Fatal(err)
	}
	if grant, ok = c.Lease("w1"); !ok {
		t.Fatal("no unit")
	}
	skewNS.Add(int64(10 * time.Second))
	if canceled := c.Heartbeat("w1", []string{grant.LeaseID}); len(canceled) != 0 {
		t.Fatalf("lease canceled by heartbeat: %v", canceled)
	}
	skewNS.Add(int64(time.Second))
	if age := c.OldestLeaseAgeSeconds(); age < 11 || age > 30 {
		t.Errorf("oldest lease age = %.2fs after grant+11s, want ~11 (time since grant, not since the last heartbeat)", age)
	}
	if err := c.Complete(grant.LeaseID, unitDocJSON("Scheme0", "bench"), "", nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.wait(t); err != nil {
		t.Fatal(err)
	}
	if h := met.UnitDuration.With("Scheme0"); h.Count() != 1 || h.Sum() < 11 {
		t.Errorf("unit duration: count %d sum %.2fs, want one grant-to-complete observation >= 11s", h.Count(), h.Sum())
	}
}

// TestSweepAfterCloseReleasesLock: a sweep that finds the unit queue closed
// (the coordinator is shutting down with a unit still backing off) must
// still release the coordinator lock, or every later Lease, Complete,
// Heartbeat, CancelJob and metrics gauge blocks forever.
func TestSweepAfterCloseReleasesLock(t *testing.T) {
	c := NewCoordinator(Config{LeaseTTL: time.Minute, SweepInterval: time.Hour})
	cl := newCollector()
	if err := c.SubmitJob("jobS", Interactive, testUnits("jobS", 1), cl.callbacks()); err != nil {
		t.Fatal(err)
	}
	grant, ok := c.Lease("w1")
	if !ok {
		t.Fatal("no unit")
	}
	if err := c.Complete(grant.LeaseID, nil, "boom", nil, nil); err != nil { // unit → waiting
		t.Fatal(err)
	}
	c.Close()
	c.sweep(time.Now().Add(time.Minute)) // backoff elapsed: tries to requeue into the closed queue
	pending := make(chan int, 1)
	go func() { pending <- c.UnitsPending() }()
	select {
	case <-pending:
	case <-time.After(2 * time.Second):
		t.Fatal("UnitsPending blocked: sweep returned with the coordinator lock held")
	}
}

func TestCoordinatorMaxAttemptsFailsUnit(t *testing.T) {
	c := fastCoordinator(t, Config{
		MaxAttempts:   2,
		RetryBackoff:  time.Millisecond,
		SweepInterval: 5 * time.Millisecond,
	})
	cl := newCollector()
	units := testUnits("jobF", 2)
	if err := c.SubmitJob("jobF", Interactive, units, cl.callbacks()); err != nil {
		t.Fatal(err)
	}
	completed := 0
	deadline := time.Now().Add(10 * time.Second)
	for completed < 2 && time.Now().Before(deadline) {
		grant, ok := c.Lease("w1")
		if !ok {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if grant.Unit.Key == "jobF-key-0" {
			if err := c.Complete(grant.LeaseID, nil, "simulator exploded", nil, nil); err != nil {
				t.Fatal(err)
			}
			if grant.Unit.Key == "jobF-key-0" {
				completed++ // count attempts on the failing unit
			}
		} else {
			if err := c.Complete(grant.LeaseID, unitDocJSON(grant.Unit.Scheme, grant.Unit.Benchmark), "", nil, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	result, err := cl.wait(t)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs   []json.RawMessage `json:"runs"`
		Errors []string          `json:"errors"`
	}
	if err := json.Unmarshal(result, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Runs) != 1 {
		t.Fatalf("runs: %d want 1", len(doc.Runs))
	}
	if len(doc.Errors) != 1 || !strings.Contains(doc.Errors[0], "Scheme0/bench:") ||
		!strings.Contains(doc.Errors[0], "simulator exploded") {
		t.Fatalf("errors: %v", doc.Errors)
	}
	if got := cl.eventCount("unit", "failed"); got != 1 {
		t.Fatalf("failed events: %d want 1", got)
	}
}

func TestCoordinatorCancelWithdrawsUnits(t *testing.T) {
	c := fastCoordinator(t, Config{})
	cl := newCollector()
	if err := c.SubmitJob("jobC", Batch, testUnits("jobC", 3), cl.callbacks()); err != nil {
		t.Fatal(err)
	}
	grant, ok := c.Lease("w1")
	if !ok {
		t.Fatal("no unit")
	}
	c.CancelJob("jobC")
	// Queued units are gone.
	if _, ok := c.Lease("w1"); ok {
		t.Fatal("cancelled job's units still leasable")
	}
	// The in-flight lease is reported canceled on heartbeat.
	canceled := c.Heartbeat("w1", []string{grant.LeaseID})
	if len(canceled) != 1 || canceled[0] != grant.LeaseID {
		t.Fatalf("heartbeat canceled: %v", canceled)
	}
	// A late completion for the withdrawn lease is dropped quietly.
	if err := c.Complete(grant.LeaseID, unitDocJSON("x", "y"), "", nil, nil); err != ErrUnknownLease {
		t.Fatalf("late complete: %v", err)
	}
	select {
	case <-cl.done:
		t.Fatal("OnDone fired for a cancelled job")
	case <-time.After(50 * time.Millisecond):
	}
	if c.UnitsPending() != 0 || c.UnitsRunning() != 0 {
		t.Fatalf("pending=%d running=%d after cancel", c.UnitsPending(), c.UnitsRunning())
	}
}

func TestCoordinatorDuplicateSubmitRejected(t *testing.T) {
	c := fastCoordinator(t, Config{})
	cl := newCollector()
	if err := c.SubmitJob("dup", Batch, testUnits("dup", 1), cl.callbacks()); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitJob("dup", Batch, testUnits("dup", 1), newCollector().callbacks()); err != ErrJobExists {
		t.Fatalf("duplicate submit: %v", err)
	}
}
