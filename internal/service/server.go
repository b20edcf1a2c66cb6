package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"equinox"
	"equinox/internal/chaos"
	"equinox/internal/fleet"
	"equinox/internal/fleet/store"
	"equinox/internal/obs"
	"equinox/internal/obs/trace"
	"equinox/internal/telemetry"
)

// Config sizes the server.
type Config struct {
	// Workers is the number of concurrent local evaluations (default 2).
	Workers int
	// JobParallelism is each evaluation's internal simulation parallelism
	// (default GOMAXPROCS/Workers, minimum 1), so a fully busy pool uses
	// about one goroutine per core.
	JobParallelism int
	// CacheEntries bounds the in-memory result cache by entry count
	// (default 128).
	CacheEntries int
	// CacheBytes additionally bounds the in-memory result cache by
	// approximate payload bytes (0 = entry bound only).
	CacheBytes int64
	// QueueDepth bounds the submission queue; submissions beyond it are
	// rejected with 429 and a Retry-After hint (default 256).
	QueueDepth int
	// ShedFraction is the queue fill fraction past which batch submissions
	// are shed with 429 while interactive ones are still admitted, so
	// load-shedding degrades bulk sweeps before humans (default 0.75).
	ShedFraction float64
	// Journal, when set, records every submission and terminal state in a
	// crash-safe log; on construction the server replays it and re-queues
	// jobs a previous process accepted but never finished. Open one with
	// OpenJournal. The server does not close it.
	Journal *Journal
	// Chaos, when set, is the fault injector whose faults this server
	// should count (exported as equinox_chaos_injected_total). The server
	// installs the injector's hook; it does not inject faults itself —
	// wiring wrapped stores or transports is the caller's business.
	Chaos *chaos.Injector
	// Store is an optional persistent result tier (typically
	// store.OpenDisk). Completed results — whole sweeps and fleet work
	// units — are written through to it and served from it after
	// restarts; processes sharing a directory share results. The server
	// does not close it.
	Store store.Store
	// Fleet tunes the coordinator (lease TTL, retry budget, ...). Its
	// Store, Logger, and Metrics fields are supplied by the server.
	Fleet fleet.Config
	// Logger receives structured access and job-lifecycle logs; nil discards
	// them (the right default for embedded and test servers).
	Logger *slog.Logger
	// TraceTail is the tail-sampling threshold for distributed span traces:
	// jobs slower than it always keep their assembled trace at
	// GET /v1/jobs/{id}/spans; faster jobs keep 1-in-TraceSample. Zero
	// keeps every trace (collection is always on — sampling only governs
	// retention, so the span counters stay meaningful either way).
	TraceTail time.Duration
	// TraceSample keeps 1 in N traces of jobs faster than TraceTail
	// (0 with a non-zero TraceTail drops all fast traces).
	TraceSample int
	// OpenMetrics terminates /v1/metrics expositions with the OpenMetrics
	// "# EOF" marker, letting scrapers distinguish a complete scrape from
	// a truncated one. Off by default: classic Prometheus text format.
	OpenMetrics bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.JobParallelism <= 0 {
		c.JobParallelism = runtime.GOMAXPROCS(0) / c.Workers
		if c.JobParallelism < 1 {
			c.JobParallelism = 1
		}
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return c
}

// Server executes evaluation jobs and serves results from a
// content-addressed store. Small jobs run on a bounded local worker pool;
// multi-run sweeps are sharded across fleet workers while any are alive.
// A job's life is the edge table in lifecycle.go: dispatch starts it,
// settle ends it. Create a Server with New, mount Handler on an
// http.Server, and drain it with Shutdown.
type Server struct {
	cfg Config

	baseCtx    context.Context
	baseCancel context.CancelFunc

	queue  *fleet.FairQueue[*job]
	coord  *fleet.Coordinator
	met    *metrics
	log    *slog.Logger
	tracer *trace.Tracer

	mu     sync.Mutex
	closed bool
	jobs   map[string]*job
	store  store.Store

	wg sync.WaitGroup
}

// New starts a server with cfg.Workers local evaluation workers and a
// fleet coordinator awaiting remote ones.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	var st store.Store = store.NewMemory(cfg.CacheEntries, cfg.CacheBytes)
	if cfg.Store != nil {
		st = store.NewTiered(st, cfg.Store)
	}
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		queue:      fleet.NewFairQueue[*job](cfg.QueueDepth),
		jobs:       map[string]*job{},
		store:      st,
		log:        cfg.Logger,
	}
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	s.tracer = trace.NewTracer("coordinator")
	s.met = newMetrics(
		func() float64 { return float64(cfg.Workers) },
		func() float64 { return float64(s.queue.Len()) },
		func() float64 { return float64(s.store.Len()) },
		func() float64 { return float64(s.store.SizeBytes()) },
	)
	s.met.reg.SetOpenMetricsEOF(cfg.OpenMetrics)
	s.met.reg.CounterFunc("equinox_trace_spans_total",
		"Trace spans started on this node (including ones later dropped at a per-trace cap).",
		func() float64 { return float64(s.tracer.SpansTotal()) })
	s.met.reg.CounterFunc("equinox_trace_dropped_spans_total",
		"Trace spans dropped at a per-trace span cap.",
		func() float64 { return float64(s.tracer.DroppedTotal()) })

	fcfg := cfg.Fleet
	fcfg.Store = s.store
	fcfg.Logger = s.log
	fcfg.Metrics = fleet.NewMetrics(s.met.reg)
	s.coord = fleet.NewCoordinator(fcfg)
	s.met.reg.GaugeFunc("equinox_fleet_workers",
		"Fleet workers seen within the worker TTL.",
		func() float64 { return float64(s.coord.ActiveWorkers()) })
	s.met.reg.GaugeFunc("equinox_fleet_units_pending",
		"Work units queued or backing off for retry.",
		func() float64 { return float64(s.coord.UnitsPending()) })
	s.met.reg.GaugeFunc("equinox_fleet_units_running",
		"Work units currently leased to workers.",
		func() float64 { return float64(s.coord.UnitsRunning()) })
	s.met.reg.GaugeFunc("equinox_fleet_oldest_lease_age_seconds",
		"Age of the oldest outstanding lease (stuck-fleet indicator).",
		func() float64 { return s.coord.OldestLeaseAgeSeconds() })

	if cfg.Chaos != nil {
		inj := s.met.chaosInjected
		cfg.Chaos.SetHook(func(kind string) { inj.With(kind).Inc() })
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				j, ok := s.queue.Pop()
				if !ok {
					return
				}
				s.run(j)
			}
		}()
	}
	if cfg.Journal != nil {
		s.recoverJournal()
	}
	return s
}

// Shutdown stops accepting submissions and drains in-flight local jobs.
// If ctx expires first, the remaining jobs are cancelled and Shutdown
// returns ctx.Err() once the workers exit. The fleet coordinator stops
// either way; sharded jobs still in flight do not survive the process.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.queue.Close()
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
		s.baseCancel()
	case <-ctx.Done():
		s.baseCancel()
		<-done
		err = ctx.Err()
	}
	s.coord.Close()
	return err
}

// run executes one queued job on the calling worker.
func (s *Server) run(j *job) {
	s.mu.Lock()
	if !j.step(JobRunning) { // cancelled while waiting in the queue
		s.mu.Unlock()
		return
	}
	j.started = time.Now()
	queueWait := j.started.Sub(j.submitted)
	ctx := j.ctx
	cfg, err := j.spec.evalConfig()
	s.mu.Unlock()
	s.met.queueWait.Observe(queueWait.Seconds())
	j.tr.Observe(j.span.ID(), "queue wait", j.submitted, queueWait)
	ctx = trace.WithSpan(ctx, j.span)
	j.log.Info("job started", "state", JobRunning, "queueWaitMs", durMS(queueWait))
	if err != nil {
		// Canonicalization already validated the spec; this is a backstop.
		s.finish(j, nil, err)
		return
	}
	cfg.Parallelism = s.cfg.JobParallelism
	total := j.totalRuns
	cfg.Progress = func(done, _ int) {
		j.doneRuns.Store(int64(done))
		j.events.publish(fleet.Event{Type: "progress", Done: done, Total: total})
	}
	if j.spec.Telemetry {
		// Each run's windowed summary streams out as a live "telemetry"
		// SSE frame as soon as the harness collects it, and feeds the
		// saturation/warmup gauges.
		cfg.TelemetryFrame = func(sum telemetry.RunSummary) {
			s.met.observeTelemetry(sum)
			raw, err := json.Marshal([]telemetry.RunSummary{sum})
			if err != nil {
				return
			}
			j.events.publish(fleet.Event{
				Type:   "telemetry",
				Scheme: sum.Scheme, Benchmark: sum.Benchmark,
				Done: int(j.doneRuns.Load()), Total: total,
				Telemetry: raw,
			})
		}
	}
	s.met.workersBusy.Add(1)
	ev, err := equinox.RunEvaluationContext(ctx, cfg)
	s.met.workersBusy.Add(-1)
	s.finish(j, ev, err)
}

// finish ends a local run: it renders the evaluation document (and, for a
// Trace-flagged job, the flight-recorder artifact) and settles the job.
func (s *Server) finish(j *job, ev *equinox.Evaluation, err error) {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The shutdown deadline cut the run short. (After a DELETE the job
		// is already settled and this is refused.)
		s.settle(j, JobCancelled, outcome{keepPending: true})
		return
	case err == nil:
		var buf bytes.Buffer
		if err = ev.WriteJSON(&buf); err == nil {
			s.settle(j, JobDone, outcome{result: buf.Bytes(), flight: s.renderFlight(j, ev)})
			return
		}
	}
	s.settle(j, JobFailed, outcome{err: err})
}

// renderFlight renders a Trace-flagged job's flight-recorder artifact and
// surfaces the watchdog counters and a job-scoped summary line. Nil for
// unflagged jobs and when rendering fails.
func (s *Server) renderFlight(j *job, ev *equinox.Evaluation) []byte {
	if !j.spec.Trace || len(ev.Flights) == 0 {
		return nil
	}
	capt := ev.Flights[0]
	var artifact []byte
	var tb bytes.Buffer
	if err := capt.WritePerfetto(&tb); err == nil {
		artifact = tb.Bytes()
	}
	s.met.flightStalls.Add(capt.StarvationFires())
	s.met.flightTail.Add(capt.TailExceeded())
	j.log.Info("job trace captured",
		"scheme", capt.Scheme, "benchmark", capt.Benchmark,
		"events", capt.TotalEvents(), "overwritten", capt.Overwritten(),
		"starvationFires", capt.StarvationFires(),
		"tailLatencyHits", capt.TailExceeded(),
		"traceBytes", len(artifact))
	return artifact
}

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs              submit a JobSpec; identical specs share one job ID
//	GET    /v1/jobs/{id}         status, progress, and (when done) the result JSON
//	GET    /v1/jobs/{id}/events  server-sent progress events until the job ends
//	GET    /v1/jobs/{id}/{trace,spans,telemetry}  a finished job's artifacts (see the artifacts table)
//	DELETE /v1/jobs/{id}         cancel a queued or running job (the edge table's two → cancelled edges)
//	GET    /v1/metrics           text-format counters and gauges
//	GET    /v1/healthz           liveness probe
//	POST   /v1/fleet/*           coordinator/worker protocol (lease, complete, heartbeat)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	for _, a := range artifacts {
		mux.HandleFunc("GET /v1/jobs/{id}/"+a.suffix, func(w http.ResponseWriter, r *http.Request) {
			s.handleArtifact(w, r, a)
		})
	}
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	fleet.RegisterHandlers(mux, s.coord, s.log)
	return obs.Middleware(mux, s.met.http, s.log, s.tracer, routeOf)
}

// routeOf maps a request to its route label. Label values must stay bounded
// (job IDs are stripped; unknown paths collapse to "other") or the per-route
// metric families would grow without limit.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/jobs":
		return "/v1/jobs"
	case strings.HasPrefix(p, "/v1/jobs/"):
		switch sub := p[strings.LastIndexByte(p, '/'):]; sub {
		case "/events", "/trace", "/spans", "/telemetry":
			return "/v1/jobs/{id}" + sub
		}
		return "/v1/jobs/{id}"
	case p == "/v1/fleet/lease", p == "/v1/fleet/complete", p == "/v1/fleet/heartbeat":
		return p
	case p == "/v1/metrics":
		return "/v1/metrics"
	case p == "/v1/healthz":
		return "/v1/healthz"
	default:
		return "other"
	}
}

// SubmitResponse is the wire form of a submission's outcome.
type SubmitResponse struct {
	ID     string   `json:"id"`
	Status JobState `json:"status"`
	// Cached reports that the result was already available and no
	// simulation was scheduled.
	Cached bool `json:"cached"`
	Runs   int  `json:"runs"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		obs.WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad job spec: %v", err))
		return
	}
	canon, err := spec.Canonicalize()
	if err != nil {
		obs.WriteError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := keyOf(canon)
	if err != nil {
		obs.WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		obs.WriteError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	j, live := s.jobs[key]
	if live && !j.state.Finished() {
		s.met.jobsDeduped.Add(1)
		resp := SubmitResponse{ID: key, Status: j.state, Runs: j.totalRuns}
		s.mu.Unlock()
		j.log.Info("job deduped", "state", resp.Status)
		obs.WriteJSON(w, http.StatusOK, resp)
		return
	}
	// A done job whose result is still stored answers from the cache, and so
	// does a result with no live record — typically a previous process's job
	// surviving in the persistent tier. Anything else (failed, cancelled,
	// or evicted since) is replaced with a fresh attempt.
	if _, hit := s.store.Get(key); hit && (!live || j.state == JobDone) {
		s.met.cacheHits.Add(1)
		s.mu.Unlock()
		if live {
			j.log.Info("job cache hit", "state", JobDone, "cache", "hit")
		} else {
			s.log.Info("job cache hit", "jobId", key, "state", JobDone, "cache", "hit")
		}
		obs.WriteJSON(w, http.StatusOK, SubmitResponse{ID: key, Status: JobDone, Cached: true, Runs: canon.Runs()})
		return
	}
	// Admission control guards the local queue; jobs bound for the fleet
	// don't enter it (the queue's own bound is enforced on fallback).
	if !s.shardable(canon) {
		if retryAfter, ok := s.admitLocked(canon.class()); !ok {
			s.mu.Unlock()
			s.rejectSubmission(w, canon.class(), retryAfter)
			return
		}
	}
	j = s.newJobLocked(key, canon, obs.RequestIDFrom(r.Context()))
	// Adopt the submitting request's trace: the job span outlives the HTTP
	// root span and collects every phase — queue wait, per-unit fleet
	// spans, harness and simulator phases.
	if sp := trace.SpanFrom(r.Context()); sp != nil {
		j.tr = sp.Trace()
		j.span = j.tr.Start(sp.ID(), "job")
		j.span.SetAttr("jobId", key)
		j.span.SetAttrInt("runs", int64(j.totalRuns))
	}
	state, err := s.dispatch(j, false)
	if err != nil {
		s.rejectSubmission(w, canon.class(), s.retryAfterSeconds())
		return
	}
	obs.WriteJSON(w, http.StatusAccepted, SubmitResponse{ID: key, Status: state, Runs: j.totalRuns})
}

// newJobLocked registers a fresh job record; the caller holds s.mu. The
// submitting request's ID is bound into the job logger so every lifecycle
// line correlates back to the client request that created the job.
func (s *Server) newJobLocked(key string, canon JobSpec, requestID string) *job {
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:        key,
		spec:      canon,
		state:     JobQueued,
		submitted: time.Now(),
		ctx:       ctx,
		cancel:    cancel,
		requestID: requestID,
		totalRuns: canon.Runs(),
		events:    newEventHub(),
		log: s.log.With(
			"jobId", key,
			"requestId", requestID,
			"schemes", strings.Join(canon.Schemes, ","),
			"benchmarks", len(canon.Benchmarks)),
	}
	s.jobs[key] = j
	return j
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		// A previous process's job may survive in the persistent store.
		if res, hit := s.store.Get(id); hit {
			writeStatus(w, JobStatus{ID: id, Status: JobDone}, res)
			return
		}
		obs.WriteError(w, http.StatusNotFound, "no such job (completed results expire from the cache)")
		return
	}
	st := j.status()
	var res []byte
	if j.state == JobDone {
		res, _ = s.store.Get(id)
	}
	s.mu.Unlock()
	writeStatus(w, st, res)
}

// writeStatus answers GET /v1/jobs/{id}: st marshalled compactly, with the
// stored result document, when there is one, spliced in as its "result"
// member byte for byte. settle and fleet.Coordinator.Complete compact a
// document once before storing it, so serving it is a copy, not a second
// validation and encoding pass. (A disk-store entry an older version wrote
// indented is served indented.)
func writeStatus(w http.ResponseWriter, st JobStatus, result []byte) {
	head, err := json.Marshal(st) // st.Result is nil: the header alone
	if err != nil {
		obs.WriteError(w, http.StatusInternalServerError, "rendering the job status: "+err.Error())
		return
	}
	if len(result) == 0 {
		obs.WriteJSONBody(w, http.StatusOK, append(head, '\n'))
		return
	}
	const member = `,"result":`
	body := make([]byte, 0, len(head)+len(member)+len(result)+2)
	body = append(body, head[:len(head)-1]...) // drop the closing brace
	body = append(body, member...)
	body = append(body, result...)
	body = append(body, "}\n"...)
	obs.WriteJSONBody(w, http.StatusOK, body)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		obs.WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	// Drop a queued job from the queue now, rather than letting a worker
	// pop and discard it later, so the slot frees immediately.
	dequeued := s.queue.Remove(func(q *job) bool { return q == j })
	// Settle before stopping the run: were the context cancelled first, the
	// unwinding run could settle the job as a shutdown-cancel and leave it
	// pending in the journal.
	if s.settle(j, JobCancelled, outcome{noSpans: true, logAttrs: []any{"via", "delete", "dequeued", dequeued}}) {
		j.cancel()
		s.coord.CancelJob(id) // no-op for a job the fleet never saw
	}
	s.mu.Lock()
	st := j.status()
	s.mu.Unlock()
	code := http.StatusOK // cancelled just now, or already (idempotent)
	if st.Status != JobCancelled {
		code = http.StatusConflict // it finished first
	}
	obs.WriteJSON(w, code, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WritePrometheus(w)
}

// keyOf hashes an already-canonical spec (see JobSpec.Key). Priority and
// Telemetry are zeroed first: they are scheduling/execution advice, and the
// same sweep at any priority or instrumentation setting shares one result
// (telemetry is purely observational).
func keyOf(canon JobSpec) (string, error) {
	canon.Priority = ""
	canon.Telemetry = false
	raw, err := json.Marshal(canon)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}
