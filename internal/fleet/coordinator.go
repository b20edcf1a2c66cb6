package fleet

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"equinox/internal/fleet/store"
	"equinox/internal/obs"
	"equinox/internal/obs/trace"
)

// Config tunes the coordinator.
type Config struct {
	// LeaseTTL is how long a granted unit may go without completion or a
	// heartbeat before it is re-leased (default 15s).
	LeaseTTL time.Duration
	// WorkerTTL is how long a worker counts as registered after its last
	// contact (default 2×LeaseTTL). With no active workers the job server
	// falls back to single-process execution.
	WorkerTTL time.Duration
	// MaxAttempts bounds how many times a unit is leased before it is
	// marked failed (default 3). Failed attempts and expired leases both
	// consume the budget.
	MaxAttempts int
	// RetryBackoff is the base delay before a failed unit is re-queued;
	// it doubles per attempt up to MaxBackoff (defaults 1s and 30s).
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
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
	// completed unit is written back.
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
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
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

// unit lifecycle states.
type unitState int

const (
	unitPending unitState = iota // in the queue
	unitLeased                   // granted to a worker
	unitWaiting                  // failed attempt, backing off before requeue
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
	id       string
	class    Class
	units    []*trackedUnit
	rem      int // units not yet done/failed
	canceled bool
	cb       JobCallbacks

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
	breakerHalfOpen breakerState = 1 // cooldown elapsed: one probe lease allowed
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
	probing   bool      // a half-open probe lease is outstanding
}

// lease is one granted unit.
type lease struct {
	id       string
	unit     *trackedUnit
	worker   string
	granted  time.Time // never renewed: lease age and unit duration count from here
	expires  time.Time // pushed out by every heartbeat
	canceled bool
}

// JobCallbacks receive a sharded job's progress and final result. They
// are invoked without coordinator locks held and may call back into the
// coordinator.
type JobCallbacks struct {
	// OnEvent delivers unit-level progress (leased/completed/failed/
	// retrying, cache hits).
	OnEvent func(Event)
	// OnDone delivers the assembled canonical evaluation document, or an
	// assembly error. It is not invoked for cancelled jobs.
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

	mu           sync.Mutex
	jobs         map[string]*trackedJob
	leases       map[string]*lease
	waiting      map[*trackedUnit]struct{}
	workers      map[string]time.Time // last contact
	workerLeases map[string]int
	breakers     map[string]*breaker // per-worker failure circuits
	leaseSeq     int64

	stop chan struct{}
	done chan struct{}
}

// NewCoordinator starts a coordinator (including its expiry-sweep
// goroutine).
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:          cfg,
		log:          cfg.Logger,
		met:          cfg.Metrics,
		queue:        NewFairQueue[*trackedUnit](cfg.QueueDepth),
		jobs:         map[string]*trackedJob{},
		leases:       map[string]*lease{},
		waiting:      map[*trackedUnit]struct{}{},
		workers:      map[string]time.Time{},
		workerLeases: map[string]int{},
		breakers:     map[string]*breaker{},
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
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

// delivery is a batch of callbacks to run outside the coordinator lock.
type delivery struct {
	job    *trackedJob
	events []Event
	final  bool
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
			d.job.cb.OnDone(res, err)
		}
		d.job.cbMu.Unlock()
	}
}

// SubmitJob shards a job's units into the fleet. Units whose content key
// is already in the store complete immediately as cache hits. Returns
// ErrQueueFull (no unit queued) when the fleet queue cannot absorb the
// job, letting the caller fall back to local execution.
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
		if c.cfg.Store != nil {
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
				if tel := extractTelemetry(res); len(tel) > 0 {
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
	// Fully-cached jobs never register: they finish before returning, and
	// leaving a record would block a later re-submission.
	if j.rem > 0 {
		c.jobs[id] = j
	}
	c.mu.Unlock()

	if len(pending) > 0 {
		if err := c.queue.PushAll(pending, class); err != nil {
			c.mu.Lock()
			delete(c.jobs, id)
			c.mu.Unlock()
			return err
		}
	}
	c.met.JobsSharded.Inc()
	c.log.Info("job sharded",
		"jobId", id, "class", class.String(),
		"units", len(units), "cacheHits", len(units)-len(pending))
	c.deliver([]delivery{{job: j, events: events, final: j.rem == 0}})
	return nil
}

// CancelJob withdraws a job: queued and waiting units are dropped
// immediately; leased units are flagged so the next heartbeat (or
// completion) tells their workers to abort. No callbacks fire after
// cancellation.
func (c *Coordinator) CancelJob(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return
	}
	j.canceled = true
	delete(c.jobs, id)
	for _, u := range j.units {
		switch u.state {
		case unitPending:
			c.queue.Remove(func(q *trackedUnit) bool { return q == u })
		case unitWaiting:
			delete(c.waiting, u)
		case unitLeased:
			if u.lease != nil {
				u.lease.canceled = true
			}
		}
		if u.state != unitDone && u.state != unitFailed {
			u.state = unitCanceled
		}
	}
	c.log.Info("job units withdrawn", "jobId", id)
}

// Lease grants one queued unit to a worker, registering the worker as
// active. ok is false when no unit is available or the worker's circuit
// breaker is open (a quarantined worker polls without receiving work
// until its cooldown admits a half-open probe).
func (c *Coordinator) Lease(worker string) (LeaseResponse, bool) {
	now := c.cfg.Now()
	c.mu.Lock()
	c.touchWorkerLocked(worker, now)
	if !c.breakerAllowLocked(worker, now) {
		c.mu.Unlock()
		return LeaseResponse{}, false
	}
	for {
		u, ok := c.queue.TryPop()
		if !ok {
			c.mu.Unlock()
			return LeaseResponse{}, false
		}
		if u.state != unitPending || u.job.canceled {
			continue // cancelled while queued
		}
		c.leaseSeq++
		l := &lease{
			id:      fmt.Sprintf("L%08d", c.leaseSeq),
			unit:    u,
			worker:  worker,
			granted: now,
			expires: now.Add(c.cfg.LeaseTTL),
		}
		u.state = unitLeased
		u.attempts++
		u.lease = l
		c.leases[l.id] = l
		c.workerLeases[worker]++
		c.met.WorkerBusy.With(worker).Set(1)
		if b := c.breakers[worker]; b != nil && b.state == breakerHalfOpen {
			b.probing = true
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
		d := delivery{job: u.job, events: []Event{u.event("unit", "leased")}}
		c.mu.Unlock()
		// The grant event feeds SSE progress and the job journal's
		// unit-grant records; delivered outside the lock like all
		// callbacks.
		c.deliver([]delivery{d})
		return resp, true
	}
}

// Complete records a unit's outcome. An unknown lease (expired and
// re-granted, or from a cancelled job) returns ErrUnknownLease; the
// worker discards the unit. A success whose result fails checkResult
// returns ErrBadResult and changes nothing. The stored and assembled
// result is the compacted document. spans, when present, are the worker's
// finished spans for the unit, stitched into the job's trace. telemetry,
// when present, is the unit's windowed telemetry summary block, delivered
// as a "telemetry" event just before the completed event.
func (c *Coordinator) Complete(leaseID string, result []byte, errMsg string, spans []trace.SpanRecord, telemetry []byte) error {
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
	j := u.job
	if u.state != unitLeased || j.canceled {
		// Cancelled (or already resolved by an expiry race): the result
		// is unwanted.
		c.mu.Unlock()
		return nil
	}
	c.stitchSpansLocked(u, l, now, spans)
	var d delivery
	if errMsg != "" {
		c.breakerFailureLocked(l.worker, now, errMsg)
		d = c.retryUnitLocked(u, now, errMsg)
	} else {
		c.breakerSuccessLocked(l.worker)
		u.result = result
		c.met.UnitDuration.With(u.Scheme).Observe(now.Sub(l.granted).Seconds())
		u.span.SetAttr("worker", l.worker)
		d = c.resolveLocked(u, unitDone)
		if len(telemetry) > 0 {
			d.events = append([]Event{u.telemetryEvent(telemetry)}, d.events...)
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

// Heartbeat marks the worker alive, renews the listed leases, and
// returns the ones the worker should abandon.
func (c *Coordinator) Heartbeat(worker string, leaseIDs []string) (canceled []string) {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.touchWorkerLocked(worker, now)
	for _, id := range leaseIDs {
		l, ok := c.leases[id]
		if !ok || l.canceled || l.unit.state != unitLeased {
			canceled = append(canceled, id)
			if ok {
				c.dropLeaseLocked(l)
			}
			continue
		}
		l.expires = now.Add(c.cfg.LeaseTTL)
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
	u.lease = nil
	u.errMsg = reason
	if u.attempts >= c.cfg.MaxAttempts {
		u.errMsg = fmt.Sprintf("failed after %d attempts: %s", u.attempts, reason)
		u.span.SetAttr("error", u.errMsg)
		c.log.Warn("unit failed",
			"jobId", u.JobID, "unitKey", u.Key,
			"attempts", u.attempts, "error", reason)
		return c.resolveLocked(u, unitFailed)
	}
	backoff := c.cfg.RetryBackoff << (u.attempts - 1)
	if backoff > c.cfg.MaxBackoff {
		backoff = c.cfg.MaxBackoff
	}
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
		if l.canceled || l.unit.state != unitLeased {
			continue
		}
		c.met.LeasesExpired.Inc()
		c.log.Warn("lease expired",
			"jobId", l.unit.JobID, "unitKey", l.unit.Key,
			"leaseId", id, "worker", l.worker)
		c.breakerFailureLocked(l.worker, now, "lease expired")
		deliveries = append(deliveries, c.retryUnitLocked(l.unit, now, "lease expired (worker lost)"))
	}
	for u := range c.waiting {
		if now.Before(u.readyAt) {
			continue
		}
		delete(c.waiting, u)
		if u.state != unitWaiting || u.job.canceled {
			continue
		}
		u.state = unitPending
		if !c.queue.forcePush(u, u.job.class) {
			break // queue closed: shutting down
		}
	}
	for w, seen := range c.workers {
		if now.Sub(seen) > c.cfg.WorkerTTL {
			delete(c.workers, w)
			c.log.Info("worker expired", "worker", w)
		}
	}
	c.mu.Unlock()
	c.deliver(deliveries)
}

// dropLeaseLocked removes a lease and maintains the per-worker busy
// accounting.
func (c *Coordinator) dropLeaseLocked(l *lease) {
	if _, ok := c.leases[l.id]; !ok {
		return
	}
	delete(c.leases, l.id)
	if n := c.workerLeases[l.worker] - 1; n > 0 {
		c.workerLeases[l.worker] = n
	} else {
		delete(c.workerLeases, l.worker)
		c.met.WorkerBusy.With(l.worker).Set(0)
	}
}

// breakerAllowLocked decides whether a worker may receive a lease:
// closed circuits always may, open ones may not until their cooldown
// elapses (which half-opens them), and half-open ones admit exactly one
// probe lease at a time.
func (c *Coordinator) breakerAllowLocked(worker string, now time.Time) bool {
	b := c.breakers[worker]
	if b == nil {
		return true
	}
	switch b.state {
	case breakerOpen:
		if now.Before(b.openUntil) {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = false
		c.met.WorkerCircuit.With(worker).Set(float64(breakerHalfOpen))
		c.log.Info("worker circuit half-open", "worker", worker)
		return true
	case breakerHalfOpen:
		return !b.probing
	default:
		return true
	}
}

// breakerFailureLocked attributes one failure (reported error or
// expired lease) to a worker, opening its circuit after
// BreakerThreshold consecutive failures — or immediately when a
// half-open probe fails.
func (c *Coordinator) breakerFailureLocked(worker string, now time.Time, reason string) {
	if c.cfg.BreakerThreshold < 0 {
		return
	}
	b := c.breakers[worker]
	if b == nil {
		b = &breaker{}
		c.breakers[worker] = b
	}
	b.consec++
	if b.state == breakerHalfOpen || b.consec >= c.cfg.BreakerThreshold {
		b.state = breakerOpen
		b.openUntil = now.Add(c.cfg.BreakerCooldown)
		b.probing = false
		c.met.WorkerCircuit.With(worker).Set(float64(breakerOpen))
		c.log.Warn("worker circuit opened",
			"worker", worker, "consecutiveFailures", b.consec,
			"cooldownMs", c.cfg.BreakerCooldown.Milliseconds(), "error", reason)
	}
}

// breakerSuccessLocked records a successful completion, closing the
// worker's circuit from any state.
func (c *Coordinator) breakerSuccessLocked(worker string) {
	b := c.breakers[worker]
	if b == nil {
		return
	}
	if b.state != breakerClosed {
		c.log.Info("worker circuit closed", "worker", worker)
	}
	b.state = breakerClosed
	b.consec = 0
	b.probing = false
	c.met.WorkerCircuit.With(worker).Set(float64(breakerClosed))
}

// WorkerCircuitState reports a worker's breaker state (0 closed,
// 1 half-open, 2 open) for tests and introspection.
func (c *Coordinator) WorkerCircuitState(worker string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b := c.breakers[worker]; b != nil {
		return int(b.state)
	}
	return int(breakerClosed)
}

func (c *Coordinator) touchWorkerLocked(worker string, now time.Time) {
	if _, known := c.workers[worker]; !known {
		c.log.Info("worker registered", "worker", worker)
	}
	c.workers[worker] = now
	c.met.WorkerLastSeen.With(worker).Set(float64(now.Unix()))
}

// ActiveWorkers counts workers seen within WorkerTTL whose circuit is
// not open. The job server shards submissions only while this is
// non-zero, so a fleet of quarantined workers degrades it gracefully
// back to local execution.
func (c *Coordinator) ActiveWorkers() int {
	now := c.cfg.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for w, seen := range c.workers {
		if now.Sub(seen) > c.cfg.WorkerTTL {
			continue
		}
		if b := c.breakers[w]; b != nil && b.state == breakerOpen && now.Before(b.openUntil) {
			continue
		}
		n++
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
	n := 0
	for _, l := range c.leases {
		if !l.canceled {
			n++
		}
	}
	return n
}

// QueueDepth returns per-class queued unit counts (interactive, batch).
func (c *Coordinator) QueueDepth() (interactive, batch int) {
	return c.queue.ClassLen(Interactive), c.queue.ClassLen(Batch)
}

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
