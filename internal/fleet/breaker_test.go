package fleet

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"equinox/internal/obs"
)

// TestJitterDeterministicPerName pins the seeded-jitter contract: one
// worker name always draws one schedule (reproducible tests), distinct
// names draw distinct schedules (no fleet-wide lockstep), and every
// draw stays inside its documented bounds.
func TestJitterDeterministicPerName(t *testing.T) {
	a1, a2, b := newJitter("worker-a"), newJitter("worker-a"), newJitter("worker-b")
	interval := 500 * time.Millisecond
	same := true
	for i := 0; i < 64; i++ {
		pa, pb := a1.poll(interval), b.poll(interval)
		if pa != a2.poll(interval) {
			t.Fatalf("same name diverged at poll %d", i)
		}
		if pa != pb {
			same = false
		}
		if pa < interval/2 || pa >= interval/2*3 {
			t.Fatalf("poll %v outside [d/2, 3d/2)", pa)
		}
		ba := a1.backoff(200*time.Millisecond, 5*time.Second, i%6)
		if ba != a2.backoff(200*time.Millisecond, 5*time.Second, i%6) {
			t.Fatalf("same name diverged at backoff %d", i)
		}
		if ba <= 0 || ba > 5*time.Second {
			t.Fatalf("backoff %v outside (0, cap]", ba)
		}
	}
	if same {
		t.Fatal("worker-a and worker-b drew identical schedules")
	}
}

// TestCoordinatorBreakerQuarantinesAndProbes walks a worker's circuit
// through its whole lifecycle: consecutive failures open it (no more
// leases), the cooldown half-opens it (exactly one probe lease), and a
// successful probe closes it. The clock is injected so the cooldown
// elapses without sleeping.
func TestCoordinatorBreakerQuarantinesAndProbes(t *testing.T) {
	var skewNS atomic.Int64
	now := func() time.Time { return time.Now().Add(time.Duration(skewNS.Load())) }
	reg := obs.NewRegistry()
	c := fastCoordinator(t, Config{
		MaxAttempts:      10, // survive every injected failure
		RetryBackoff:     time.Millisecond,
		SweepInterval:    5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		Now:              now,
		Metrics:          NewMetrics(reg),
	})
	cl := newCollector()
	if err := c.SubmitJob("jobB", Interactive, testUnits("jobB", 2), cl.callbacks()); err != nil {
		t.Fatal(err)
	}

	// leaseAs polls until the worker is granted a unit.
	leaseAs := func(worker string) LeaseResponse {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			g, ok := c.Lease(worker)
			checkInvariants(t, c)
			if ok {
				return g
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("%s never got a lease", worker)
		return LeaseResponse{}
	}

	// Two consecutive failures open flaky's circuit.
	for i := 0; i < 2; i++ {
		g := leaseAs("flaky")
		if err := c.Complete(g.LeaseID, nil, "injected failure", nil, nil); err != nil {
			t.Fatal(err)
		}
		checkInvariants(t, c)
	}
	if st := c.WorkerCircuitState("flaky"); st != int(breakerOpen) {
		t.Fatalf("circuit state after 2 failures = %d, want open (2)", st)
	}

	// Quarantined: pending work exists, but flaky gets none of it.
	waitUnits := func() {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for c.UnitsPending() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("units never requeued")
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	waitUnits()
	for i := 0; i < 5; i++ {
		if _, ok := c.Lease("flaky"); ok {
			t.Fatal("open circuit still granted a lease")
		}
		checkInvariants(t, c)
	}
	// A healthy worker drains one unit meanwhile.
	g := leaseAs("healthy")
	if err := c.Complete(g.LeaseID, unitDocJSON(g.Unit.Scheme, g.Unit.Benchmark), "", nil, nil); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)

	// The gauge exports the open state.
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `equinox_worker_circuit_state{worker="flaky"} 2`) {
		t.Fatalf("exposition missing open circuit gauge:\n%s", buf.String())
	}

	// Cooldown elapses (clock skew, no sleeping): exactly one probe.
	skewNS.Add(int64(2 * time.Hour))
	waitUnits()
	probe := leaseAs("flaky")
	if st := c.WorkerCircuitState("flaky"); st != int(breakerHalfOpen) {
		t.Fatalf("circuit state during probe = %d, want half-open (1)", st)
	}
	if _, ok := c.Lease("flaky"); ok {
		t.Fatal("half-open circuit granted a second concurrent lease")
	}
	checkInvariants(t, c)
	// Probe succeeds: circuit closes.
	if err := c.Complete(probe.LeaseID, unitDocJSON(probe.Unit.Scheme, probe.Unit.Benchmark), "", nil, nil); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if st := c.WorkerCircuitState("flaky"); st != int(breakerClosed) {
		t.Fatalf("circuit state after successful probe = %d, want closed (0)", st)
	}
	if _, err := cl.wait(t); err != nil {
		t.Fatal(err)
	}
	if got := cl.eventCount("unit", "leased"); got < 4 {
		t.Errorf("leased events = %d, want >= 4 (2 failures + healthy + probe)", got)
	}
}

// TestCoordinatorBreakerReopensOnFailedProbe pins the half-open →
// failed-probe → open transition.
func TestCoordinatorBreakerReopensOnFailedProbe(t *testing.T) {
	var skewNS atomic.Int64
	now := func() time.Time { return time.Now().Add(time.Duration(skewNS.Load())) }
	c := fastCoordinator(t, Config{
		MaxAttempts:      20,
		RetryBackoff:     time.Millisecond,
		SweepInterval:    5 * time.Millisecond,
		BreakerThreshold: 1, // first failure opens
		BreakerCooldown:  time.Hour,
		Now:              now,
	})
	cl := newCollector()
	if err := c.SubmitJob("jobR", Interactive, testUnits("jobR", 1), cl.callbacks()); err != nil {
		t.Fatal(err)
	}
	lease := func() LeaseResponse {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			g, ok := c.Lease("flaky")
			checkInvariants(t, c)
			if ok {
				return g
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatal("no lease")
		return LeaseResponse{}
	}
	g := lease()
	if err := c.Complete(g.LeaseID, nil, "boom", nil, nil); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if st := c.WorkerCircuitState("flaky"); st != int(breakerOpen) {
		t.Fatalf("state = %d, want open", st)
	}
	skewNS.Add(int64(2 * time.Hour))
	g = lease() // half-open probe
	if err := c.Complete(g.LeaseID, nil, "boom again", nil, nil); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	// A failed probe reopens immediately regardless of the threshold.
	if st := c.WorkerCircuitState("flaky"); st != int(breakerOpen) {
		t.Fatalf("state after failed probe = %d, want open", st)
	}
}

// openFlaky returns a fake-clocked coordinator whose first failure opens a
// circuit for 30 s, with worker flaky's circuit just opened: its one unit
// failed and backs off under a cancelled job.
func openFlaky(t *testing.T) (*Coordinator, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	c := NewCoordinator(Config{
		LeaseTTL:         time.Minute,
		SweepInterval:    time.Hour,
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Second,
		Now:              clk.now,
	})
	t.Cleanup(c.Close)
	if err := c.SubmitJob("jobA", Interactive, testUnits("jobA", 1), JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	g, ok := c.Lease("flaky")
	if !ok {
		t.Fatal("no unit for flaky")
	}
	if err := c.Complete(g.LeaseID, nil, "boom", nil, nil); err != nil {
		t.Fatal(err)
	}
	c.CancelJob("jobA")
	checkInvariants(t, c)
	if st := c.WorkerCircuitState("flaky"); st != int(breakerOpen) {
		t.Fatalf("circuit state after the failure = %d, want open (2)", st)
	}
	return c, clk
}

// TestCoordinatorBreakerProbeCancelled: a half-open worker whose probe
// unit is cancelled holds no lease any more, so its next poll is a fresh
// probe; the worker is not left quarantined for good.
func TestCoordinatorBreakerProbeCancelled(t *testing.T) {
	c, clk := openFlaky(t)
	clk.advance(31 * time.Second) // past the cooldown
	if err := c.SubmitJob("jobP", Interactive, testUnits("jobP", 1), JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	probe, ok := c.Lease("flaky")
	if !ok {
		t.Fatal("half-open circuit granted no probe")
	}
	checkInvariants(t, c)
	c.CancelJob("jobP")
	checkInvariants(t, c)
	ok = false
	if err := c.SubmitJob("jobQ", Interactive, testUnits("jobQ", 1), JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	// The worker keeps polling for three hours, well past the cancelled
	// probe's lease TTL.
	var again LeaseResponse
	for i := 0; i < 120 && !ok; i++ {
		clk.advance(90 * time.Second)
		c.Heartbeat("flaky", nil)
		c.sweep(clk.now())
		checkInvariants(t, c)
		again, ok = c.Lease("flaky")
	}
	if !ok {
		t.Fatalf("worker stuck in circuit state %d for 3 h after its probe %s was cancelled", c.WorkerCircuitState("flaky"), probe.LeaseID)
	}
	checkInvariants(t, c)
	if err := c.Complete(again.LeaseID, unitDocJSON(again.Unit.Scheme, again.Unit.Benchmark), "", nil, nil); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if st := c.WorkerCircuitState("flaky"); st != int(breakerClosed) {
		t.Fatalf("circuit state after the second probe succeeded = %d, want closed (0)", st)
	}
}

// TestCoordinatorBreakerHeldLeaseIsProbe: a worker whose circuit opens
// while it still holds a lease gets no new lease once half-open; the held
// lease is its probe, and its success closes the circuit.
func TestCoordinatorBreakerHeldLeaseIsProbe(t *testing.T) {
	c, clk := openFlaky(t)
	// Close the circuit with a good unit, then hold one lease while a
	// second unit fails.
	if err := c.SubmitJob("jobB", Interactive, testUnits("jobB", 3), JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	clk.advance(31 * time.Second)
	held, ok := c.Lease("flaky")
	if !ok {
		t.Fatal("half-open circuit granted no probe")
	}
	if err := c.Complete(held.LeaseID, unitDocJSON(held.Unit.Scheme, held.Unit.Benchmark), "", nil, nil); err != nil {
		t.Fatal(err)
	}
	if held, ok = c.Lease("flaky"); !ok {
		t.Fatal("closed circuit granted no lease")
	}
	failing, ok := c.Lease("flaky")
	if !ok {
		t.Fatal("closed circuit granted no second lease")
	}
	if err := c.Complete(failing.LeaseID, nil, "boom", nil, nil); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if st := c.WorkerCircuitState("flaky"); st != int(breakerOpen) {
		t.Fatalf("circuit state after the failure = %d, want open (2)", st)
	}

	clk.advance(31 * time.Second)
	c.sweep(clk.now()) // the failed unit's backoff is over: it is queued again
	if _, ok := c.Lease("flaky"); ok {
		t.Fatal("half-open circuit granted a lease while the worker holds one")
	}
	checkInvariants(t, c)
	if st := c.WorkerCircuitState("flaky"); st != int(breakerHalfOpen) {
		t.Fatalf("circuit state after the cooldown = %d, want half-open (1)", st)
	}
	if err := c.Complete(held.LeaseID, unitDocJSON(held.Unit.Scheme, held.Unit.Benchmark), "", nil, nil); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if st := c.WorkerCircuitState("flaky"); st != int(breakerClosed) {
		t.Fatalf("circuit state after the held lease succeeded = %d, want closed (0)", st)
	}
	if _, ok := c.Lease("flaky"); !ok {
		t.Fatal("closed circuit granted no lease")
	}
}
