package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"equinox/internal/obs"
	"equinox/internal/obs/trace"
)

// RunFunc executes one work unit's canonical spec and returns its
// evaluation JSON. The context is cancelled when the coordinator
// withdraws the lease (job cancelled, lease re-granted) or the worker
// shuts down. A leading "flight" member (FlightPrefix) moves into
// CompleteRequest.Flight. An error marked Permanent fails the unit at once.
type RunFunc func(ctx context.Context, unit Unit) ([]byte, error)

// Permanent marks a RunFunc error that every attempt on every worker would
// repeat — the unit's spec or design cannot be built — so the coordinator
// fails the unit at once instead of retrying it. The message is err's.
func Permanent(err error) error { return permanentError{err} }

type permanentError struct{ error }

func (e permanentError) Unwrap() error { return e.error }

// WorkerConfig tunes a fleet worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Name is the worker's stable self-chosen name (shows up in logs and
	// per-worker metrics on the coordinator).
	Name string
	// Run executes one unit. Required.
	Run RunFunc
	// Parallelism is the number of units executed concurrently
	// (default 1).
	Parallelism int
	// PollInterval paces lease polling while the queue is empty
	// (default 500ms).
	PollInterval time.Duration
	// HeartbeatInterval paces lease renewal; it should be well under the
	// coordinator's lease TTL (default 2s; LocalWorker: a third of it).
	HeartbeatInterval time.Duration
	// Logger receives worker logs (nil discards).
	Logger *slog.Logger
	// Client is the HTTP client used for protocol calls (nil uses a
	// client with a 30s timeout).
	Client *http.Client
	// Tracer, when non-nil, records per-unit spans: each granted unit
	// whose lease carries a TraceParent gets a root span joined to the
	// coordinator's trace, the Run context carries it (so harness/sim
	// spans nest under it), and the finished spans ship back in the
	// complete payload.
	Tracer *trace.Tracer
}

// Worker pulls units from a coordinator and executes them. Create one
// with NewWorker or Coordinator.LocalWorker and drive it with Run.
type Worker struct {
	cfg   WorkerConfig
	log   *slog.Logger
	conn  conn
	jit   *jitter
	grant chan LeaseResponse // a LocalWorker's hand-offs, one slot per unit loop

	mu     sync.Mutex
	leases map[string]*workerLease
}

// conn is the worker's side of the lease protocol, its one seam between
// the two transports: an httpConn speaks HTTP to a remote coordinator, and
// an in-process worker's conn is its *Coordinator.
type conn interface {
	// lease asks for a unit for w; ok is false when none is granted.
	lease(ctx context.Context, w *Worker) (resp LeaseResponse, ok bool, err error)
	// complete reports an outcome. ErrUnknownLease and ErrBadResult are
	// the coordinator's final answers; any other error may be transient.
	complete(ctx context.Context, req CompleteRequest) error
	heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error)
}

// jitter is the worker's seeded backoff randomizer. Seeding it from the
// worker's name keeps tests reproducible while still de-synchronizing a
// fleet: a restarted fleet's workers poll and retry on distinct
// schedules instead of thundering in lockstep.
type jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newJitter(name string) *jitter {
	h := fnv.New64a()
	h.Write([]byte(name)) //nolint:errcheck
	return &jitter{rng: rand.New(rand.NewSource(int64(h.Sum64())))}
}

// poll spreads a poll interval uniformly over [d/2, 3d/2).
func (j *jitter) poll(d time.Duration) time.Duration {
	j.mu.Lock()
	f := j.rng.Float64()
	j.mu.Unlock()
	return d/2 + time.Duration(f*float64(d))
}

// backoff draws a full-jitter retry delay: uniform in (0, min(cap,
// base<<attempt)]. Full jitter decorrelates retries across the fleet —
// doubling a shared base would have every worker retry at the same
// instants.
func (j *jitter) backoff(base, ceil time.Duration, attempt int) time.Duration {
	max := base << attempt
	if max > ceil || max <= 0 {
		max = ceil
	}
	j.mu.Lock()
	f := j.rng.Float64()
	j.mu.Unlock()
	d := time.Duration(f * float64(max))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

type workerLease struct {
	cancel    context.CancelFunc
	abandoned bool // coordinator withdrew it: do not post a result
}

// NewWorker validates cfg and returns a worker that speaks HTTP to
// cfg.Coordinator.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, fmt.Errorf("fleet: worker needs a coordinator URL")
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return newWorker(cfg, httpConn{base: cfg.Coordinator, hc: hc})
}

// LocalWorker returns a worker that calls c directly: no HTTP, no polling
// (an idle one blocks until c hands it a unit), and a cancelled job's
// unit stops at once.
func (c *Coordinator) LocalWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = c.cfg.LeaseTTL / 3
	}
	w, err := newWorker(cfg, c)
	if err != nil {
		return nil, err
	}
	w.grant = make(chan LeaseResponse, w.cfg.Parallelism)
	return w, nil
}

func newWorker(cfg WorkerConfig, cn conn) (*Worker, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("fleet: worker needs a name")
	}
	if cfg.Run == nil {
		return nil, fmt.Errorf("fleet: worker needs a Run function")
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = 1
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 500 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 2 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	return &Worker{
		cfg:    cfg,
		log:    cfg.Logger,
		conn:   cn,
		jit:    newJitter(cfg.Name),
		leases: map[string]*workerLease{},
	}, nil
}

// WaitReady blocks until the coordinator answers an HTTP request,
// retrying connection failures with capped full-jitter backoff. Any
// HTTP response — even an error status — counts as ready: the transport
// is up and the protocol loops own per-request retries from there. It
// returns the last connection error once budget elapses, or ctx.Err()
// if the context ends first. A LocalWorker is always ready.
func (w *Worker) WaitReady(ctx context.Context, budget time.Duration) error {
	h, ok := w.conn.(httpConn)
	if !ok {
		return nil
	}
	deadline := time.Now().Add(budget)
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			h.base+"/v1/healthz", nil)
		if err != nil {
			return fmt.Errorf("fleet: bad coordinator URL %q: %w", h.base, err)
		}
		resp, err := h.hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck
			resp.Body.Close()
			if attempt > 0 {
				w.log.Info("coordinator reachable", "coordinator", w.cfg.Coordinator, "attempts", attempt+1)
			}
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: coordinator %s unreachable after %v: %w",
				w.cfg.Coordinator, budget, lastErr)
		}
		wait := w.jit.backoff(200*time.Millisecond, 3*time.Second, attempt)
		w.log.Warn("coordinator unreachable; retrying",
			"coordinator", w.cfg.Coordinator, "attempt", attempt+1,
			"retryInMs", wait.Milliseconds(), "error", err)
		sleepCtx(ctx, wait)
	}
}

// Run polls for units and executes them until ctx is cancelled. It always
// returns ctx.Err() after all in-flight units have wound down.
func (w *Worker) Run(ctx context.Context) error {
	w.log.Info("worker starting",
		"worker", w.cfg.Name, "coordinator", w.cfg.Coordinator,
		"parallelism", w.cfg.Parallelism)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(ctx)
	}()
	for i := 0; i < w.cfg.Parallelism; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.unitLoop(ctx, slot)
		}(i)
	}
	wg.Wait()
	w.log.Info("worker stopped", "worker", w.cfg.Name)
	return ctx.Err()
}

func (w *Worker) unitLoop(ctx context.Context, slot int) {
	for ctx.Err() == nil {
		grant, ok, err := w.conn.lease(ctx, w)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			w.log.Warn("lease request failed", "slot", slot, "error", err)
			sleepCtx(ctx, w.jit.poll(w.cfg.PollInterval))
			continue
		}
		if !ok {
			sleepCtx(ctx, w.jit.poll(w.cfg.PollInterval))
			continue
		}
		w.execute(ctx, grant)
	}
}

// execute runs one granted unit and posts its outcome (unless the lease
// was withdrawn mid-run).
func (w *Worker) execute(ctx context.Context, grant LeaseResponse) {
	unitCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	wl := &workerLease{cancel: cancel}
	w.mu.Lock()
	w.leases[grant.LeaseID] = wl
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.leases, grant.LeaseID)
		w.mu.Unlock()
	}()
	if w.grant != nil {
		// In process: a CancelJob between the hand-off and the line above
		// found no lease here to abandon. Ask once, rather than run until the
		// next heartbeat.
		if hb, err := w.conn.heartbeat(ctx, HeartbeatRequest{Worker: w.cfg.Name, LeaseIDs: []string{grant.LeaseID}}); err == nil && len(hb.Canceled) > 0 {
			w.log.Info("unit abandoned (lease withdrawn)", "leaseId", grant.LeaseID)
			return
		}
	}

	w.log.Info("unit started",
		"leaseId", grant.LeaseID, "jobId", grant.Unit.JobID,
		"scheme", grant.Unit.Scheme, "benchmark", grant.Unit.Benchmark)
	var tr *trace.Trace
	var sp *trace.Span
	if w.cfg.Tracer != nil && grant.Unit.TraceParent != "" {
		if joined, parent, ok := w.cfg.Tracer.Join(grant.Unit.TraceParent); ok {
			tr = joined
			sp = tr.Start(parent, "run "+grant.Unit.Scheme+"/"+grant.Unit.Benchmark)
			sp.SetAttr("leaseId", grant.LeaseID)
			unitCtx = trace.WithSpan(unitCtx, sp)
		}
	}
	result, runErr := w.cfg.Run(unitCtx, grant.Unit)
	if runErr != nil {
		sp.SetAttr("error", runErr.Error())
	}
	sp.End()

	w.mu.Lock()
	abandoned := wl.abandoned
	w.mu.Unlock()
	if abandoned {
		w.log.Info("unit abandoned (lease withdrawn)", "leaseId", grant.LeaseID)
		return
	}
	if ctx.Err() != nil && runErr != nil {
		// Shutting down: the lease will expire and the unit will be
		// re-granted elsewhere; a spurious "context canceled" failure
		// would burn one of the unit's attempts.
		return
	}

	req := CompleteRequest{LeaseID: grant.LeaseID, Spans: tr.Records()}
	if runErr != nil {
		req.Error = runErr.Error()
		req.Final = errors.As(runErr, new(permanentError))
		w.log.Warn("unit failed",
			"leaseId", grant.LeaseID, "jobId", grant.Unit.JobID, "error", runErr)
	} else {
		req.Result, req.Flight = extractFlight(result)
		req.Telemetry = ExtractTelemetry(req.Result)
		w.log.Info("unit finished",
			"leaseId", grant.LeaseID, "jobId", grant.Unit.JobID,
			"resultBytes", len(result))
	}
	if err := w.complete(ctx, req); err != nil {
		w.log.Warn("completion not delivered; unit will be re-leased",
			"leaseId", grant.LeaseID, "error", err)
	}
}

func (w *Worker) heartbeatLoop(ctx context.Context) {
	tick := time.NewTicker(w.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		w.mu.Lock()
		ids := make([]string, 0, len(w.leases))
		for id := range w.leases {
			ids = append(ids, id)
		}
		w.mu.Unlock()
		resp, err := w.conn.heartbeat(ctx, HeartbeatRequest{Worker: w.cfg.Name, LeaseIDs: ids})
		if err != nil {
			if ctx.Err() == nil {
				w.log.Warn("heartbeat failed", "error", err)
			}
			continue
		}
		w.abandon(resp.Canceled...)
	}
}

// abandon withdraws in-flight units the coordinator no longer wants: they
// stop at their next cancellation check and post no result.
func (w *Worker) abandon(leaseIDs ...string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, id := range leaseIDs {
		if wl, ok := w.leases[id]; ok {
			wl.abandoned = true
			wl.cancel()
		}
	}
}

// complete delivers a unit outcome, retrying transient failures with
// bounded full-jitter backoff so a network blip does not cost a finished
// simulation. ErrUnknownLease (lease already gone) is success: the
// coordinator no longer wants the result. ErrBadResult is deterministic —
// the same body would be refused again — so the unit is reported failed
// instead, once, and takes the coordinator's retry with backoff rather
// than waiting out its lease.
func (w *Worker) complete(ctx context.Context, req CompleteRequest) error {
	for attempt := 0; ; attempt++ {
		err := w.conn.complete(ctx, req)
		switch {
		case err == nil || errors.Is(err, ErrUnknownLease):
			return nil
		case errors.Is(err, ErrBadResult) && req.Error == "":
			w.log.Warn("unit result rejected; reporting the unit failed",
				"leaseId", req.LeaseID, "error", err)
			req = CompleteRequest{LeaseID: req.LeaseID, Error: err.Error(), Spans: req.Spans}
			continue
		case errors.Is(err, ErrBadResult) || attempt == 3 || ctx.Err() != nil:
			return err
		}
		sleepCtx(ctx, w.jit.backoff(200*time.Millisecond, 5*time.Second, attempt))
	}
}

// httpConn is the remote transport: the protocol over HTTP.
type httpConn struct {
	base string // the coordinator's base URL
	hc   *http.Client
}

// lease asks for a unit; ok is false when the queue is empty (204).
func (h httpConn) lease(ctx context.Context, w *Worker) (LeaseResponse, bool, error) {
	var resp LeaseResponse
	status, err := h.post(ctx, "/v1/fleet/lease", LeaseRequest{Worker: w.cfg.Name}, &resp)
	if err != nil || status == http.StatusNoContent {
		return LeaseResponse{}, false, err
	}
	return resp, true, nil
}

// complete posts one outcome: a 410 is ErrUnknownLease and any other 4xx
// wraps ErrBadResult.
func (h httpConn) complete(ctx context.Context, req CompleteRequest) error {
	status, err := h.post(ctx, "/v1/fleet/complete", req, nil)
	switch {
	case status == http.StatusGone:
		return ErrUnknownLease
	case status >= 400 && status < 500:
		return fmt.Errorf("%w: %v", ErrBadResult, err)
	}
	return err
}

func (h httpConn) heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	_, err := h.post(ctx, "/v1/fleet/heartbeat", req, &resp)
	return resp, err
}

// post does one protocol POST. Status is returned for the no-content and
// gone cases; 5xx/4xx other than those become errors.
func (h httpConn) post(ctx context.Context, path string, body, out any) (int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		h.base+path, bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return resp.StatusCode, nil
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if out != nil {
			if err := json.NewDecoder(io.LimitReader(resp.Body, maxProtocolBody)).Decode(out); err != nil {
				return resp.StatusCode, fmt.Errorf("decoding %s response: %w", path, err)
			}
		}
		return resp.StatusCode, nil
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
