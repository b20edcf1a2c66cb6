package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"equinox/internal/fleet/store"
	"equinox/internal/obs"
	"equinox/internal/obs/trace"
)

// maxBackoff caps a failed unit's doubling retry delay.
const maxBackoff = 30 * time.Second

// Config tunes the coordinator.
type Config struct {
	// LeaseTTL is how long a granted unit may go without completion or a
	// heartbeat before it is re-leased (default 15s).
	LeaseTTL time.Duration
	// WorkerTTL is how long a worker counts as registered after its last
	// contact (default 2×LeaseTTL).
	WorkerTTL time.Duration
	// MaxAttempts bounds how many times a unit is leased before it is
	// marked failed (default 3). Failed attempts and expired leases both
	// consume the budget.
	MaxAttempts int
	// RetryBackoff is the base delay before a failed unit is re-queued;
	// it doubles per attempt up to maxBackoff (default 1s).
	RetryBackoff time.Duration
	// SweepInterval paces the lease-expiry/backoff scan (default
	// LeaseTTL/4, clamped to [25ms, 1s]).
	SweepInterval time.Duration
	// QueueDepth bounds the unit queue (default 4096).
	QueueDepth int
	// BreakerThreshold is the number of consecutive failures (reported
	// errors or expired leases) that open a worker's circuit breaker,
	// quarantining it from further leases (default 3; negative disables).
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit quarantines its worker
	// before a single half-open probe lease is allowed (default 30s).
	BreakerCooldown time.Duration
	// Now supplies the coordinator's clock (default time.Now). Tests and
	// the chaos injector substitute a skewable clock to drive lease
	// expiry and backoff deterministically.
	Now func() time.Time
	// Store, when non-nil, enables unit-level result reuse: units whose
	// content key is already stored complete without running, and every
	// completed unit is written back, as is a multi-unit job's document,
	// under the job's id (a one-unit job's document is its unit's).
	Store store.Store
	// Logger receives lease-lifecycle logs (nil discards).
	Logger *slog.Logger
	// Metrics receives fleet instruments (nil registers them on a
	// private, unexported registry).
	Metrics *Metrics
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 2 * c.LeaseTTL
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.LeaseTTL / 4
		if c.SweepInterval < 25*time.Millisecond {
			c.SweepInterval = 25 * time.Millisecond
		}
		if c.SweepInterval > time.Second {
			c.SweepInterval = time.Second
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4096
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	if c.Metrics == nil {
		c.Metrics = NewMetrics(obs.NewRegistry())
	}
	return c
}

// Lease/submission errors surfaced to the HTTP layer.
var (
	ErrUnknownLease = errors.New("fleet: unknown or expired lease")
	ErrJobExists    = errors.New("fleet: job already submitted")
	// ErrBadResult rejects a completion whose result is not an evaluation
	// document carrying at least one run or error. Nothing is stored and
	// the lease stays, so the unit expires into the normal retry.
	ErrBadResult = errors.New("fleet: result is not an evaluation document")
)

// unit lifecycle states. Each of the first three is also a container,
// and a unit is in exactly the container its state names: the queue holds
// the pending units, the waiting set the backing-off ones and the lease
// table the leased ones. So a unit found in a container needs no state
// check.
type unitState int

const (
	unitPending unitState = iota // in the queue
	unitLeased                   // granted to a worker: its lease is in the lease table
	unitWaiting                  // failed attempt, backing off in the waiting set
	unitDone
	unitFailed
	unitCanceled
)

// trackedUnit is the coordinator's record of one work unit.
type trackedUnit struct {
	Unit
	job      *trackedJob
	state    unitState
	attempts int // leases granted so far
	readyAt  time.Time
	lease    *lease
	result   []byte
	errMsg   string

	// span covers the unit from submission to resolution; wait covers one
	// queued period (submission or requeue → lease grant). Both nil when
	// the job carries no trace.
	span *trace.Span
	wait *trace.Span
}

// trackedJob is the coordinator's record of one sharded job.
type trackedJob struct {
	id    string
	class Class
	units []*trackedUnit
	rem   int // units not yet done/failed
	cb    JobCallbacks

	// cbMu serializes callback delivery so unit events never trail the
	// terminal delivery.
	cbMu sync.Mutex
}

// event builds a progress event about the unit, stamped with the job's
// current done/total counts. Callers hold the coordinator lock (or, in
// SubmitJob, have not published the job yet).
func (u *trackedUnit) event(typ, status string) Event {
	j := u.job
	return Event{
		Type: typ, Status: status,
		Scheme: u.Scheme, Benchmark: u.Benchmark, UnitKey: u.Key,
		Done: len(j.units) - j.rem, Total: len(j.units),
	}
}

// telemetryEvent is the "telemetry" frame carrying the unit's windowed
// summary block, emitted just before its completed (or cache) event.
func (u *trackedUnit) telemetryEvent(block []byte) Event {
	ev := u.event("telemetry", "")
	ev.Telemetry = block
	return ev
}

// Circuit-breaker states, exported to the
// equinox_worker_circuit_state{worker} gauge by numeric value.
type breakerState int

const (
	breakerClosed   breakerState = 0 // healthy: leases flow
	breakerHalfOpen breakerState = 1 // cooldown elapsed: the worker's one lease is its probe
	breakerOpen     breakerState = 2 // quarantined: no leases until cooldown
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker tracks one worker's consecutive-failure circuit. Failures are
// worker-reported unit errors and expired leases; any successful
// completion closes the circuit.
type breaker struct {
	state     breakerState
	consec    int       // consecutive failures while closed
	openUntil time.Time // when an open circuit may half-open
}

// workerRec is the coordinator's one record of a worker. It lives while
// the worker was seen within WorkerTTL, holds a lease, or has an open
// circuit still cooling down (so a restart under the same name serves the
// quarantine).
type workerRec struct {
	seen    time.Time // last contact
	expired bool      // unregistered (past WorkerTTL at a sweep, or never seen): it exports no series
	leases  int       // leases it holds
	breaker breaker
}

// lease is one granted unit.
type lease struct {
	id      string
	unit    *trackedUnit
	worker  string
	granted time.Time // never renewed: lease age and unit duration count from here
	expires time.Time // pushed out by every heartbeat
	// owner is the in-process worker holding the lease, nil for a remote
	// one. It is abandoned at once on cancel and feeds no circuit breaker.
	owner *Worker
}

// JobCallbacks receive a sharded job's progress and final result. They
// are invoked without coordinator locks held and may call back into the
// coordinator.
type JobCallbacks struct {
	// OnEvent delivers unit-level progress (leased/completed/failed/
	// retrying, cache hits).
	OnEvent func(Event)
	// OnDone delivers the job's compact evaluation document (assemble),
	// or why there is none. It is not invoked for cancelled jobs.
	OnDone func(result []byte, err error)
	// Trace, when non-nil, collects the job's distributed spans: the
	// coordinator opens a span per unit under Parent (the job span's ID),
	// times lease waits, and stitches in worker-shipped spans from
	// complete payloads.
	Trace *trace.Trace
	// Parent is the span ID unit spans attach under.
	Parent string
}

// Coordinator shards jobs into leasable units and tracks workers, leases,
// retries, and assembly. Create one with NewCoordinator and stop it with
// Close.
type Coordinator struct {
	cfg   Config
	log   *slog.Logger
	met   *Metrics
	queue *FairQueue[*trackedUnit]

	mu       sync.Mutex
	jobs     map[string]*trackedJob
	leases   map[string]*lease
	waiting  map[*trackedUnit]struct{}
	workers  map[string]*workerRec
	idle     []*Worker // in-process workers blocked in lease, oldest first
	leaseSeq int64

	stop chan struct{}
	done chan struct{}
}

// NewCoordinator starts a coordinator (including its expiry-sweep
// goroutine).
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		log:     cfg.Logger,
		met:     cfg.Metrics,
		queue:   NewFairQueue[*trackedUnit](cfg.QueueDepth),
		jobs:    map[string]*trackedJob{},
		leases:  map[string]*lease{},
		waiting: map[*trackedUnit]struct{}{},
		workers: map[string]*workerRec{},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.sweepLoop()
	return c
}

// Close stops the sweep goroutine and the unit queue.
func (c *Coordinator) Close() {
	select {
	case <-c.stop:
		return // already closed
	default:
	}
	close(c.stop)
	c.queue.Close()
	<-c.done
}

func (c *Coordinator) sweepLoop() {
	defer close(c.done)
	tick := time.NewTicker(c.cfg.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			c.sweep(c.cfg.Now())
		}
	}
}

// delivery is a batch of callbacks to run outside the coordinator lock,
// then, for a unit handed to an idle in-process worker, its wake-up.
type delivery struct {
	job    *trackedJob
	events []Event
	final  bool
	wake   *Worker
	grant  LeaseResponse
}

// deliver runs the callbacks under the job's callback mutex so event
// order is preserved and the terminal delivery comes last.
func (c *Coordinator) deliver(deliveries []delivery) {
	for _, d := range deliveries {
		d.job.cbMu.Lock()
		for _, ev := range d.events {
			if d.job.cb.OnEvent != nil {
				d.job.cb.OnEvent(ev)
			}
		}
		if d.final && d.job.cb.OnDone != nil {
			res, err := assemble(d.job.units)
			if err == nil && len(d.job.units) > 1 && c.cfg.Store != nil {
				c.cfg.Store.Put(d.job.id, res)
			}
			d.job.cb.OnDone(res, err)
		}
		d.job.cbMu.Unlock()
		if d.wake != nil {
			d.wake.grant <- d.grant
		}
	}
}

// SubmitJob shards a job's units into the fleet. Units whose content key
// is already in the store complete immediately as cache hits, and idle
// in-process workers are handed units (lease events delivered) before it
// returns. Returns ErrQueueFull (no unit queued) when the queue is full.
func (c *Coordinator) SubmitJob(id string, class Class, units []Unit, cb JobCallbacks) error {
	j := &trackedJob{id: id, class: class, cb: cb, rem: len(units), units: make([]*trackedUnit, len(units))}
	var pending []*trackedUnit
	var events []Event
	for i, u := range units {
		tu := &trackedUnit{Unit: u, job: j}
		j.units[i] = tu
		tu.span = cb.Trace.Start(cb.Parent, "unit "+u.Scheme+"/"+u.Benchmark)
		tu.span.SetAttr("scheme", u.Scheme)
		tu.span.SetAttr("benchmark", u.Benchmark)
		tu.span.SetAttr("unitKey", u.Key)
		// The store probe happens before the units are visible to any
		// worker, so no lock is needed yet.
		if c.cfg.Store != nil && !u.Rerun {
			lookup := cb.Trace.Start(tu.span.ID(), "store lookup")
			res, ok := c.cfg.Store.Get(u.Key)
			lookup.SetAttr("hit", fmt.Sprintf("%v", ok))
			lookup.End()
			if ok {
				// Not resolveLocked: the job is not registered (and must
				// not unregister a live namesake), and a hit is counted as
				// a cache hit, not a completion.
				tu.state = unitDone
				tu.result = res
				j.rem--
				c.met.UnitCacheHits.Inc()
				tu.span.SetAttr("cache", "hit")
				tu.span.End()
				tu.span = nil
				// A cached unit run with telemetry on still carries its
				// windows; replay them so a cache-heavy job streams the
				// same live frames as a freshly computed one.
				if tel := ExtractTelemetry(res); len(tel) > 0 {
					events = append(events, tu.telemetryEvent(tel))
				}
				events = append(events, tu.event("cache", "completed"))
				continue
			}
		}
		tu.wait = cb.Trace.Start(tu.span.ID(), "lease wait")
		pending = append(pending, tu)
	}

	c.mu.Lock()
	if _, exists := c.jobs[id]; exists {
		c.mu.Unlock()
		return ErrJobExists
	}
	if len(pending) > 0 {
		if err := c.queue.PushAll(pending, class); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	// Fully-cached jobs never register: they finish before returning, and
	// leaving a record would block a later re-submission.
	if j.rem > 0 {
		c.jobs[id] = j
	}
	handed := c.handOffLocked(c.cfg.Now())
	c.mu.Unlock()

	c.met.JobsSharded.Inc()
	c.log.Info("units queued",
		"jobId", id, "class", class.String(),
		"units", len(units), "cacheHits", len(units)-len(pending))
	c.deliver(append([]delivery{{job: j, events: events, final: j.rem == 0}}, handed...))
	return nil
}

// handOffLocked grants queued units to idle in-process workers, oldest
// first, as deliveries that wake them.
func (c *Coordinator) handOffLocked(now time.Time) []delivery {
	var out []delivery
	for len(c.idle) > 0 {
		w := c.idle[0]
		resp, d, ok := c.grantNextLocked(w.cfg.Name, w, now)
		if !ok {
			break
		}
		c.idle = slices.Delete(c.idle, 0, 1)
		d.wake, d.grant = w, resp
		out = append(out, d)
	}
	return out
}

// CancelJob withdraws a job: its queued and waiting units are dropped and
// its leases revoked at once, so the next heartbeat tells a remote holder
// to abort and a late completion answers ErrUnknownLease; in-process
// holders abandon the unit now. No callbacks fire after cancellation.
func (c *Coordinator) CancelJob(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return
	}
	delete(c.jobs, id)
	for _, u := range j.units {
		switch u.state {
		case unitPending:
			c.queue.Remove(func(q *trackedUnit) bool { return q == u })
		case unitWaiting:
			delete(c.waiting, u)
		case unitLeased:
			l := u.lease
			c.dropLeaseLocked(l)
			if l.owner != nil {
				l.owner.abandon(l.id)
			}
		}
		if u.state != unitDone && u.state != unitFailed {
			u.state, u.lease = unitCanceled, nil
		}
	}
	c.log.Info("units withdrawn", "jobId", id)
}

// Lease grants one queued unit to a worker, registering the worker as
// active. ok is false when no unit is available or the worker's circuit
// breaker is open (a quarantined worker polls without receiving work
// until its cooldown admits a half-open probe).
func (c *Coordinator) Lease(worker string) (LeaseResponse, bool) {
	now := c.cfg.Now()
	c.mu.Lock()
	if !c.breakerAllowLocked(worker, c.touchWorkerLocked(worker, now), now) {
		c.mu.Unlock()
		return LeaseResponse{}, false
	}
	resp, d, ok := c.grantNextLocked(worker, nil, now)
	c.mu.Unlock()
	if ok {
		// The grant event feeds SSE progress; delivered outside the lock
		// like all callbacks.
		c.deliver([]delivery{d})
	}
	return resp, ok
}

// lease grants the in-process worker w the next queued unit, blocking
// until SubmitJob or a requeue hands it one; ok is false once ctx ends.
func (c *Coordinator) lease(ctx context.Context, w *Worker) (LeaseResponse, bool, error) {
	now := c.cfg.Now()
	c.mu.Lock()
	c.touchWorkerLocked(w.cfg.Name, now)
	if resp, d, ok := c.grantNextLocked(w.cfg.Name, w, now); ok {
		c.mu.Unlock()
		c.deliver([]delivery{d})
		return resp, true, nil
	}
	c.idle = append(c.idle, w)
	c.mu.Unlock()
	select {
	case resp := <-w.grant:
		return resp, true, nil
	case <-ctx.Done():
	}
	c.mu.Lock()
	i := slices.Index(c.idle, w)
	if i >= 0 {
		c.idle = slices.Delete(c.idle, i, i+1)
	}
	c.mu.Unlock()
	if i < 0 { // handed a unit as ctx ended: the lease is the worker's now
		return <-w.grant, true, nil
	}
	return LeaseResponse{}, false, ctx.Err()
}

// grantNextLocked leases the next grantable queued unit to worker (owner:
// see lease) and returns the grant and its lease event to deliver.
func (c *Coordinator) grantNextLocked(worker string, owner *Worker, now time.Time) (LeaseResponse, delivery, bool) {
	u, ok := c.queue.TryPop()
	if !ok {
		return LeaseResponse{}, delivery{}, false
	}
	w := c.workerLocked(worker) // new only for an idle in-process worker that expired while it waited
	c.leaseSeq++
	l := &lease{
		id:      fmt.Sprintf("L%08d", c.leaseSeq),
		unit:    u,
		worker:  worker,
		granted: now,
		expires: now.Add(c.cfg.LeaseTTL),
		owner:   owner,
	}
	u.state = unitLeased
	u.attempts++
	u.lease = l
	c.leases[l.id] = l
	w.leases++
	if !w.expired {
		c.met.WorkerBusy.With(worker).Set(1)
	}
	if w.breaker.state == breakerHalfOpen {
		c.log.Info("worker circuit probing", "worker", worker, "leaseId", l.id)
	}
	u.wait.SetAttr("worker", worker)
	u.wait.End()
	u.wait = nil
	c.log.Info("unit leased",
		"jobId", u.JobID, "unitKey", u.Key, "leaseId", l.id,
		"worker", worker, "attempt", u.attempts,
		"scheme", u.Scheme, "benchmark", u.Benchmark)
	resp := LeaseResponse{
		LeaseID:   l.id,
		TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
		Unit:      u.Unit,
	}
	// The traceparent rides the grant, not the spec: a tracing worker
	// joins the unit span so its spans stitch under the job's trace.
	resp.Unit.TraceParent = u.span.TraceParent()
	return resp, delivery{job: u.job, events: []Event{u.event("unit", "leased")}}, true
}

// Complete records a unit's outcome from its parts; see complete.
func (c *Coordinator) Complete(leaseID string, result []byte, errMsg string, spans []trace.SpanRecord, telemetry []byte) error {
	return c.complete(context.Background(), CompleteRequest{LeaseID: leaseID, Result: result, Error: errMsg, Spans: spans, Telemetry: telemetry})
}

// complete records a unit's outcome: req.Result on success, req.Error on
// failure (retried with backoff unless req.Final). An unknown lease
// (expired, or from a cancelled job) returns ErrUnknownLease; the worker
// discards the unit. A success whose result fails checkResult returns
// ErrBadResult and changes nothing. The stored and assembled result is
// the compacted document. req.Spans are stitched into the job's trace;
// req.Telemetry becomes a "telemetry" event just before the completed
// event, which carries req.Flight.
func (c *Coordinator) complete(_ context.Context, req CompleteRequest) error {
	leaseID, result, errMsg := req.LeaseID, []byte(req.Result), req.Error
	var bad error
	if errMsg == "" {
		result, bad = checkResult(result)
	}
	now := c.cfg.Now()
	c.mu.Lock()
	l, ok := c.leases[leaseID]
	if !ok {
		c.mu.Unlock()
		return ErrUnknownLease
	}
	if bad != nil {
		c.mu.Unlock()
		c.log.Warn("unit result rejected",
			"jobId", l.unit.JobID, "unitKey", l.unit.Key, "leaseId", leaseID,
			"worker", l.worker, "error", bad.Error())
		return bad
	}
	c.dropLeaseLocked(l)
	u := l.unit
	c.stitchSpansLocked(u, l, now, req.Spans)
	var d delivery
	switch {
	case req.Final && errMsg != "":
		// The spec's fault, not the worker's: no retry, no breaker failure.
		d = c.failUnitLocked(u, errMsg)
	case errMsg != "":
		if l.owner == nil {
			c.breakerFailureLocked(l.worker, c.workers[l.worker], now, errMsg)
		}
		d = c.retryUnitLocked(u, now, errMsg)
	default:
		c.breakerSuccessLocked(l.worker, c.workers[l.worker])
		u.result = result
		c.met.UnitDuration.With(u.Scheme).Observe(now.Sub(l.granted).Seconds())
		u.span.SetAttr("worker", l.worker)
		d = c.resolveLocked(u, unitDone)
		d.events[0].Flight = req.Flight
		if len(req.Telemetry) > 0 {
			d.events = append([]Event{u.telemetryEvent(req.Telemetry)}, d.events...)
		}
		c.log.Info("unit completed",
			"jobId", u.JobID, "unitKey", u.Key, "leaseId", leaseID,
			"worker", l.worker, "resultBytes", len(result))
	}
	c.mu.Unlock()
	if errMsg == "" && c.cfg.Store != nil {
		c.cfg.Store.Put(u.Key, result)
	}
	c.deliver([]delivery{d})
	return nil
}

// heartbeat is Heartbeat for an in-process worker.
func (c *Coordinator) heartbeat(_ context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return HeartbeatResponse{Canceled: c.Heartbeat(req.Worker, req.LeaseIDs)}, nil
}

// Heartbeat marks the worker alive, renews the listed leases it holds,
// and returns the ones it should abandon. A lease another worker holds is
// returned too but left as it is, so it expires if its holder died.
func (c *Coordinator) Heartbeat(worker string, leaseIDs []string) (canceled []string) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker, now)
	for _, id := range leaseIDs {
		if l, ok := c.leases[id]; ok && l.worker == worker {
			l.expires = now.Add(c.cfg.LeaseTTL)
		} else {
			canceled = append(canceled, id)
		}
	}
	return canceled
}

// stitchSpansLocked imports a worker's spans into the job's trace and
// synthesizes the "complete round-trip" span the worker cannot record
// itself (its payload is sealed before the POST): from the last
// worker-side span end to coordinator receipt. Clock-skew-bounded — the
// two timestamps come from different hosts.
func (c *Coordinator) stitchSpansLocked(u *trackedUnit, l *lease, now time.Time, spans []trace.SpanRecord) {
	tr := u.job.cb.Trace
	if tr == nil || len(spans) == 0 {
		return
	}
	tr.Import(spans)
	var lastEnd int64
	for _, r := range spans {
		if end := r.StartUnixNS + r.DurNS; end > lastEnd {
			lastEnd = end
		}
	}
	start := time.Unix(0, lastEnd)
	d := now.Sub(start)
	if d < 0 {
		d = 0
	}
	tr.Observe(u.span.ID(), "complete round-trip", start, d,
		trace.Attr{K: "worker", S: l.worker})
}

// retryUnitLocked handles a failed attempt (worker-reported failure or
// expired lease): back off and requeue while budget remains, otherwise
// mark the unit failed. Returns the callback delivery to run after
// unlocking.
func (c *Coordinator) retryUnitLocked(u *trackedUnit, now time.Time, reason string) delivery {
	if u.attempts >= c.cfg.MaxAttempts {
		return c.failUnitLocked(u, fmt.Sprintf("failed after %d attempts: %s", u.attempts, reason))
	}
	u.lease = nil
	u.errMsg = reason
	// Doubled per earlier attempt, but never past the cap: a shift by
	// attempts-1 overflows from the 35th attempt on.
	backoff := c.cfg.RetryBackoff
	for i := 1; i < u.attempts && backoff < maxBackoff; i++ {
		backoff *= 2
	}
	backoff = min(backoff, maxBackoff)
	u.state = unitWaiting
	u.readyAt = now.Add(backoff)
	c.waiting[u] = struct{}{}
	c.met.UnitsRetried.Inc()
	// A fresh wait span covers backoff + queue time until the next grant.
	u.wait = u.job.cb.Trace.Start(u.span.ID(), "lease wait")
	u.wait.SetAttr("retry", reason)
	c.log.Warn("unit retrying",
		"jobId", u.JobID, "unitKey", u.Key,
		"attempt", u.attempts, "backoffMs", backoff.Milliseconds(), "error", reason)
	ev := u.event("unit", "retrying")
	ev.Err = reason
	return delivery{job: u.job, events: []Event{ev}}
}

// failUnitLocked ends a unit failed with msg, the job's error for it.
func (c *Coordinator) failUnitLocked(u *trackedUnit, msg string) delivery {
	u.errMsg = msg
	u.span.SetAttr("error", msg)
	c.log.Warn("unit failed",
		"jobId", u.JobID, "unitKey", u.Key,
		"attempts", u.attempts, "error", msg)
	return c.resolveLocked(u, unitFailed)
}

// resolveLocked ends a unit in unitDone or unitFailed — the one place a
// registered job's remaining count drops: it unregisters the job with its
// last unit (allowing future re-submission), ends the unit span, counts
// the outcome, and returns the unit's final event, marked as the job's
// terminal delivery when no unit remains.
func (c *Coordinator) resolveLocked(u *trackedUnit, to unitState) delivery {
	j := u.job
	u.state, u.lease = to, nil
	j.rem--
	if j.rem == 0 {
		delete(c.jobs, j.id)
	}
	u.span.SetAttrInt("attempts", int64(u.attempts))
	u.span.End()
	u.span = nil
	ev := u.event("unit", "completed")
	if to == unitFailed {
		ev.Status, ev.Err = "failed", u.errMsg
		c.met.UnitsFailed.Inc()
	} else {
		c.met.UnitsCompleted.Inc()
	}
	return delivery{job: j, events: []Event{ev}, final: j.rem == 0}
}

// sweep advances time-driven state: expired leases, elapsed backoffs,
// and stale workers.
func (c *Coordinator) sweep(now time.Time) {
	var deliveries []delivery
	c.mu.Lock()
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		c.dropLeaseLocked(l)
		c.met.LeasesExpired.Inc()
		c.log.Warn("lease expired",
			"jobId", l.unit.JobID, "unitKey", l.unit.Key,
			"leaseId", id, "worker", l.worker)
		if l.owner == nil {
			c.breakerFailureLocked(l.worker, c.workers[l.worker], now, "lease expired")
		}
		deliveries = append(deliveries, c.retryUnitLocked(l.unit, now, "lease expired (worker lost)"))
	}
	for u := range c.waiting {
		if now.Before(u.readyAt) {
			continue
		}
		if !c.queue.forcePush(u, u.job.class) {
			break // queue closed: shutting down
		}
		delete(c.waiting, u)
		u.state = unitPending
	}
	// An expired worker's series go at once; its record goes once it holds
	// no lease and its circuit is not cooling down.
	for name, w := range c.workers {
		if now.Sub(w.seen) <= c.cfg.WorkerTTL {
			continue
		}
		if !w.expired {
			w.expired = true
			c.met.WorkerLastSeen.Delete(name)
			c.met.WorkerBusy.Delete(name)
			c.met.WorkerCircuit.Delete(name)
			c.log.Info("worker expired", "worker", name)
		}
		if w.leases == 0 && !w.breaker.quarantined(now) {
			delete(c.workers, name)
		}
	}
	deliveries = append(deliveries, c.handOffLocked(now)...)
	c.mu.Unlock()
	c.deliver(deliveries)
}

// dropLeaseLocked removes a lease from the table and from its worker's
// count, idling the worker's busy gauge with its last lease.
func (c *Coordinator) dropLeaseLocked(l *lease) {
	delete(c.leases, l.id)
	w := c.workers[l.worker]
	if w.leases--; w.leases == 0 && !w.expired {
		c.met.WorkerBusy.With(l.worker).Set(0)
	}
}

// quarantined reports whether the circuit is open and still cooling down.
func (b breaker) quarantined(now time.Time) bool {
	return b.state == breakerOpen && now.Before(b.openUntil)
}

// setCircuitLocked moves w's circuit to s and exports it, unless the
// worker has expired: an expired worker keeps no series.
func (c *Coordinator) setCircuitLocked(name string, w *workerRec, s breakerState) {
	w.breaker.state = s
	if !w.expired {
		c.met.WorkerCircuit.With(name).Set(float64(s))
	}
}

// breakerAllowLocked decides whether a remote worker may receive a lease:
// closed circuits always may, open ones may not until their cooldown
// elapses (which half-opens them), and a half-open one may while its
// worker holds no lease, so that one lease is its probe.
func (c *Coordinator) breakerAllowLocked(name string, w *workerRec, now time.Time) bool {
	if w.breaker.state == breakerOpen {
		if w.breaker.quarantined(now) {
			return false
		}
		c.setCircuitLocked(name, w, breakerHalfOpen)
		c.log.Info("worker circuit half-open", "worker", name)
	}
	return w.breaker.state == breakerClosed || w.leases == 0
}

// breakerFailureLocked attributes one failure (reported error or
// expired lease) to a worker, opening its circuit after
// BreakerThreshold consecutive failures — or immediately when a
// half-open probe fails.
func (c *Coordinator) breakerFailureLocked(name string, w *workerRec, now time.Time, reason string) {
	if c.cfg.BreakerThreshold < 0 {
		return
	}
	b := &w.breaker
	b.consec++
	if b.state == breakerHalfOpen || b.consec >= c.cfg.BreakerThreshold {
		b.openUntil = now.Add(c.cfg.BreakerCooldown)
		c.setCircuitLocked(name, w, breakerOpen)
		c.log.Warn("worker circuit opened",
			"worker", name, "consecutiveFailures", b.consec,
			"cooldownMs", c.cfg.BreakerCooldown.Milliseconds(), "error", reason)
	}
}

// breakerSuccessLocked records a successful completion, closing the
// worker's circuit from any state. A worker with no failure on record
// exports no circuit series.
func (c *Coordinator) breakerSuccessLocked(name string, w *workerRec) {
	if w.breaker == (breaker{}) {
		return
	}
	if w.breaker.state != breakerClosed {
		c.log.Info("worker circuit closed", "worker", name)
	}
	w.breaker = breaker{}
	c.setCircuitLocked(name, w, breakerClosed)
}

// WorkerCircuitState reports a worker's breaker state (0 closed,
// 1 half-open, 2 open) for tests and introspection.
func (c *Coordinator) WorkerCircuitState(worker string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[worker]; w != nil {
		return int(w.breaker.state)
	}
	return int(breakerClosed)
}

// workerLocked returns a worker's record, creating an unregistered one
// (it exports no series) for a name the coordinator does not hold.
func (c *Coordinator) workerLocked(name string) *workerRec {
	w := c.workers[name]
	if w == nil {
		w = &workerRec{expired: true}
		c.workers[name] = w
	}
	return w
}

// touchWorkerLocked records contact from a worker, registering it anew if
// it was unknown or had expired, and returns its record.
func (c *Coordinator) touchWorkerLocked(name string, now time.Time) *workerRec {
	w := c.workerLocked(name)
	if w.expired {
		c.log.Info("worker registered", "worker", name)
	}
	w.seen, w.expired = now, false
	c.met.WorkerLastSeen.With(name).Set(float64(now.Unix()))
	return w
}

// ActiveWorkers counts workers seen within WorkerTTL whose circuit is
// not open, in-process workers included.
func (c *Coordinator) ActiveWorkers() int {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if now.Sub(w.seen) <= c.cfg.WorkerTTL && !w.breaker.quarantined(now) {
			n++
		}
	}
	return n
}

// UnitsPending counts units queued or backing off.
func (c *Coordinator) UnitsPending() int {
	c.mu.Lock()
	waiting := len(c.waiting)
	c.mu.Unlock()
	return c.queue.Len() + waiting
}

// UnitsRunning counts units currently leased.
func (c *Coordinator) UnitsRunning() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.leases)
}

// QueueDepth returns per-class queued unit counts (interactive, batch).
func (c *Coordinator) QueueDepth() (interactive, batch int) {
	return c.queue.ClassLen(Interactive), c.queue.ClassLen(Batch)
}

// QueueCap returns the unit queue's bound (Config.QueueDepth).
func (c *Coordinator) QueueCap() int { return c.cfg.QueueDepth }

// OldestLeaseAgeSeconds returns the age of the oldest outstanding lease,
// 0 with none outstanding — a stuck-fleet indicator for dashboards.
func (c *Coordinator) OldestLeaseAgeSeconds() float64 {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var oldest float64
	for _, l := range c.leases {
		if age := now.Sub(l.granted).Seconds(); age > oldest {
			oldest = age
		}
	}
	return oldest
}
