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
		checkInvariants(t, c)
		doc := unitDocJSON(grant.Unit.Scheme, grant.Unit.Benchmark)
		if err := c.Complete(grant.LeaseID, doc, "", nil, nil); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, c)
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
	checkInvariants(t, c)
	// Only the uncached unit should be leasable.
	grant, ok := c.Lease("w1")
	if !ok {
		t.Fatal("no unit to lease")
	}
	checkInvariants(t, c)
	if grant.Unit.Key != "jobS-key-1" {
		t.Fatalf("leased cached unit %s", grant.Unit.Key)
	}
	if _, ok := c.Lease("w1"); ok {
		t.Fatal("second lease should find nothing")
	}
	if err := c.Complete(grant.LeaseID, unitDocJSON(grant.Unit.Scheme, grant.Unit.Benchmark), "", nil, nil); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
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
	checkInvariants(t, c)
	// "Crash": never complete, never heartbeat. The unit must come back.
	var regrant LeaseResponse
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("unit never re-leased after expiry")
		}
		checkInvariants(t, c)
		if g, ok := c.Lease("healthy"); ok {
			regrant = g
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	checkInvariants(t, c)
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
	checkInvariants(t, c)
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
		checkInvariants(t, c)
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
	checkInvariants(t, c)
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
	checkInvariants(t, c)
	c.Close()
	c.sweep(time.Now().Add(time.Minute)) // backoff elapsed: tries to requeue into the closed queue
	pending := make(chan int, 1)
	go func() { pending <- c.UnitsPending() }()
	select {
	case <-pending:
	case <-time.After(2 * time.Second):
		t.Fatal("UnitsPending blocked: sweep returned with the coordinator lock held")
	}
	checkInvariants(t, c)
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
		checkInvariants(t, c)
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
		checkInvariants(t, c)
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
	checkInvariants(t, c)
	c.CancelJob("jobC")
	checkInvariants(t, c)
	// Queued units are gone.
	if _, ok := c.Lease("w1"); ok {
		t.Fatal("cancelled job's units still leasable")
	}
	// The in-flight lease is reported canceled on heartbeat.
	canceled := c.Heartbeat("w1", []string{grant.LeaseID})
	if len(canceled) != 1 || canceled[0] != grant.LeaseID {
		t.Fatalf("heartbeat canceled: %v", canceled)
	}
	checkInvariants(t, c)
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
	checkInvariants(t, c)
}

// fakeClock is a coordinator clock that moves only when told to.
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	clk := &fakeClock{}
	clk.ns.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return clk
}

func (clk *fakeClock) now() time.Time          { return time.Unix(0, clk.ns.Load()) }
func (clk *fakeClock) advance(d time.Duration) { clk.ns.Add(int64(d)) }

// TestHeartbeatRenewsOnlyOwnLeases: a heartbeat naming another worker's
// lease is told to abandon it and neither renews nor drops it, so the
// lease of a worker that died still expires and its unit is retried.
func TestHeartbeatRenewsOnlyOwnLeases(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{LeaseTTL: 10 * time.Second, SweepInterval: time.Hour, Now: clk.now})
	t.Cleanup(c.Close)
	if err := c.SubmitJob("jobR", Interactive, testUnits("jobR", 1), JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	grant, ok := c.Lease("a")
	if !ok {
		t.Fatal("no unit")
	}
	// a dies; b heartbeats a's lease for two TTLs.
	for i := 0; i < 5; i++ {
		clk.advance(4 * time.Second)
		if canceled := c.Heartbeat("b", []string{grant.LeaseID}); len(canceled) != 1 || canceled[0] != grant.LeaseID {
			t.Fatalf("b's heartbeat for a's lease returned %v, want [%s]", canceled, grant.LeaseID)
		}
		if n := c.UnitsRunning(); n != 1 {
			t.Fatalf("units running after b's heartbeat = %d, want 1 (the lease stays a's)", n)
		}
		checkInvariants(t, c)
	}
	c.sweep(clk.now())
	checkInvariants(t, c)
	if running, pending := c.UnitsRunning(), c.UnitsPending(); running != 0 || pending != 1 {
		t.Fatalf("after the sweep: %d running, %d pending; want a's lease expired and its unit retried", running, pending)
	}
	clk.advance(time.Minute) // past the retry backoff
	c.sweep(clk.now())
	checkInvariants(t, c)
	if again, ok := c.Lease("b"); !ok || again.Unit.Key != grant.Unit.Key {
		t.Fatalf("re-lease = %+v (ok=%v), want unit %s back in the queue", again, ok, grant.Unit.Key)
	}
	checkInvariants(t, c)
}

// TestExpiredWorkerLeavesNoSeries: once a worker expires, its last-seen,
// busy and circuit-state series leave the exposition — also when it held
// a lease that expires after it, or a circuit still open — and its breaker
// goes once the circuit is no longer open. Worker restarts under fresh
// names therefore do not grow /v1/metrics or the breaker map.
func TestExpiredWorkerLeavesNoSeries(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	c := NewCoordinator(Config{
		LeaseTTL:         10 * time.Second,
		WorkerTTL:        5 * time.Second,
		SweepInterval:    time.Hour,
		MaxAttempts:      10,
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Second,
		Now:              clk.now,
		Metrics:          NewMetrics(reg),
	})
	t.Cleanup(c.Close)
	if err := c.SubmitJob("jobW", Interactive, testUnits("jobW", 2), JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	g, ok := c.Lease("flaky")
	if !ok {
		t.Fatal("no unit for flaky")
	}
	if err := c.Complete(g.LeaseID, nil, "boom", nil, nil); err != nil { // opens flaky's circuit
		t.Fatal(err)
	}
	if _, ok := c.Lease("holder"); !ok { // holder then goes silent
		t.Fatal("no unit for holder")
	}
	c.Heartbeat("live", nil)
	checkInvariants(t, c)

	expo := func() string {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if e := expo(); !strings.Contains(e, `worker="flaky"`) || !strings.Contains(e, `worker="holder"`) {
		t.Fatalf("exposition lacks the workers' series before expiry:\n%s", e)
	}
	breakers := func() int {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := 0
		for _, w := range c.workers {
			if w.breaker != (breaker{}) {
				n++
			}
		}
		return n
	}
	// +6 s: flaky and holder expire (holder's lease has 4 s left); +11 s:
	// the lease expires too, opening holder's circuit; +42 s: both
	// cooldowns are over.
	for _, step := range []struct {
		d        time.Duration
		breakers int
	}{{6 * time.Second, 1}, {5 * time.Second, 2}, {31 * time.Second, 0}} {
		clk.advance(step.d)
		c.Heartbeat("live", nil)
		c.sweep(clk.now())
		checkInvariants(t, c)
		e := expo()
		if strings.Contains(e, `worker="flaky"`) || strings.Contains(e, `worker="holder"`) {
			t.Fatalf("expired workers still exposed:\n%s", e)
		}
		if !strings.Contains(e, `equinox_fleet_worker_last_seen_timestamp_seconds{worker="live"}`) {
			t.Fatalf("live worker's series missing:\n%s", e)
		}
		if n := breakers(); n != step.breakers {
			t.Fatalf("breakers after +%v = %d, want %d", step.d, n, step.breakers)
		}
	}
}

// checkInvariants asserts that each unit state is the container holding
// the unit and that each worker record counts exactly its leases: every
// queued unit is pending, every waiting one is waiting, every lease's unit
// is leased and points back to it, and each record's lease count matches
// the lease table.
func checkInvariants(tb testing.TB, c *Coordinator) {
	tb.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queue.mu.Lock()
	for class := range c.queue.q {
		for _, u := range c.queue.q[class][c.queue.head[class]:] {
			if u.state != unitPending {
				tb.Errorf("queued unit %s in state %d, want pending", u.Key, u.state)
			}
		}
	}
	c.queue.mu.Unlock()
	for u := range c.waiting {
		if u.state != unitWaiting {
			tb.Errorf("waiting unit %s in state %d, want waiting", u.Key, u.state)
		}
	}
	held := map[string]int{}
	for id, l := range c.leases {
		if l.unit.state != unitLeased || l.unit.lease != l {
			tb.Errorf("lease %s: unit %s in state %d holding lease %p, want leased holding %p", id, l.unit.Key, l.unit.state, l.unit.lease, l)
		}
		held[l.worker]++
	}
	for name, w := range c.workers {
		if w.leases != held[name] {
			tb.Errorf("worker %s counts %d leases, holds %d", name, w.leases, held[name])
		}
		delete(held, name)
	}
	for name, n := range held {
		tb.Errorf("worker %s holds %d leases but has no record", name, n)
	}
}

// TestCoordinatorRetryBackoffCapped: a failed unit's retry delay doubles
// per attempt from RetryBackoff up to maxBackoff and stays there, however
// many attempts MaxAttempts allows; a shifted delay overflows from the
// 35th attempt on and would retry at once.
func TestCoordinatorRetryBackoffCapped(t *testing.T) {
	clk := newFakeClock()
	c := NewCoordinator(Config{
		LeaseTTL:         time.Hour,
		SweepInterval:    time.Hour,
		MaxAttempts:      70,
		BreakerThreshold: -1,
		Now:              clk.now,
	})
	t.Cleanup(c.Close)
	if err := c.SubmitJob("jobB", Interactive, testUnits("jobB", 1), JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	want := time.Second
	for attempt := 1; attempt < 70; attempt++ {
		g, ok := c.Lease("w")
		if !ok {
			t.Fatalf("attempt %d: no unit", attempt)
		}
		if err := c.Complete(g.LeaseID, nil, "boom", nil, nil); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, c)
		clk.advance(want - time.Millisecond)
		c.sweep(clk.now())
		if _, ok := c.Lease("w"); ok {
			t.Fatalf("attempt %d: unit leasable before its %v backoff", attempt, want)
		}
		clk.advance(time.Millisecond)
		c.sweep(clk.now())
		checkInvariants(t, c)
		want = min(2*want, maxBackoff)
	}
}
