package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"equinox/internal/fleet"
	"equinox/internal/fleet/store"
	"equinox/internal/obs"
	"equinox/internal/obs/trace"
)

// Config sizes the server.
type Config struct {
	// Workers is the number of in-process unit executors: fleet workers
	// that lease from the server's own coordinator by direct call, each
	// running one unit — one simulation — at a time (default GOMAXPROCS).
	Workers int
	// JobParallelism is ignored: a unit is one run, so there is nothing
	// left for it to bound. It remains for callers that still set it.
	JobParallelism int
	// CacheEntries bounds the in-memory result cache by entry count
	// (default 128), job documents and the unit results of multi-unit jobs
	// each on their own.
	CacheEntries int
	// CacheBytes additionally bounds each half of the in-memory result
	// cache by approximate payload bytes (0 = entry bound only).
	CacheBytes int64
	// ShedFraction is the unit-queue (Fleet.QueueDepth) fill fraction past
	// which batch submissions are shed with 429 while interactive ones are
	// admitted until their units no longer fit, so load-shedding degrades
	// bulk sweeps before humans (default 0.75).
	ShedFraction float64
	// Journal, when set, holds every accepted job durably until it
	// finishes; on construction the server re-queues the jobs a previous
	// process accepted but never finished. Open one with OpenJournal.
	Journal *Journal
	// Store is an optional persistent result tier (typically
	// store.OpenDisk). Completed results — whole sweeps and fleet work
	// units — are written through to it and served from it after
	// restarts; processes sharing a directory share results. The server
	// does not close it.
	Store store.Store
	// Fleet tunes the coordinator (lease TTL, retry budget, unit queue
	// depth, ...). Its Store, Logger, and Metrics fields are supplied by
	// the server.
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
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	return c
}

// Server executes evaluation jobs and serves results from a
// content-addressed store. Every job runs as single-run work units on the
// server's fleet coordinator, leased by cfg.Workers in-process executors
// and any remote workers; its life is the edge table in lifecycle.go.
// Create a Server with New, mount Handler on an http.Server, and drain it
// with Shutdown.
type Server struct {
	cfg Config

	coord  *fleet.Coordinator
	met    *metrics
	log    *slog.Logger
	tracer *trace.Tracer

	mu     sync.Mutex
	closed bool
	jobs   map[string]*job
	store  *results

	live        sync.WaitGroup // jobs not yet terminal: Shutdown drains them
	executors   sync.WaitGroup
	stopExecute context.CancelFunc
}

// New starts a server: a fleet coordinator with cfg.Workers in-process
// executors, awaiting remote workers too.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		jobs: map[string]*job{},
		log:  cfg.Logger,
	}
	s.store = &results{
		jobs:  store.NewMemory(cfg.CacheEntries, cfg.CacheBytes),
		units: store.NewMemory(cfg.CacheEntries, cfg.CacheBytes),
		disk:  cfg.Store,
		s:     s,
	}
	if s.log == nil {
		s.log = obs.NopLogger()
	}
	s.tracer = trace.NewTracer("coordinator")
	s.met = newMetrics(
		func() float64 { return float64(cfg.Workers) },
		func() float64 { return float64(s.queuedUnits()) },
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

	var ctx context.Context
	ctx, s.stopExecute = context.WithCancel(context.Background())
	for i := 0; i < cfg.Workers; i++ {
		w, err := s.coord.LocalWorker(fleet.WorkerConfig{
			Name:   fmt.Sprintf("local-%d", i),
			Logger: s.log,
			Tracer: s.tracer,
			Run: func(ctx context.Context, u fleet.Unit) ([]byte, error) {
				s.met.workersBusy.Add(1)
				defer s.met.workersBusy.Add(-1)
				return RunSpec(ctx, u.Spec, 1)
			},
		})
		if err != nil {
			panic(err) // unreachable: the name and Run are set
		}
		s.executors.Add(1)
		go func() {
			defer s.executors.Done()
			w.Run(ctx) //nolint:errcheck // always ctx.Err()
		}()
	}
	if cfg.Journal != nil {
		s.recoverJournal()
	}
	return s
}

// Shutdown stops accepting submissions and waits for every job to end. If
// ctx expires first, the rest are cancelled, left pending in the journal
// for the next process, and it returns ctx.Err(). Either way, when it
// returns every job is terminal and every event stream closed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.live.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		var left []*job
		for _, j := range s.jobs {
			if !j.state.Finished() {
				left = append(left, j)
			}
		}
		s.mu.Unlock()
		for _, j := range left {
			s.coord.CancelJob(j.id)
			s.settle(j, JobCancelled, outcome{keepPending: true})
		}
	}
	s.stopExecute()
	s.executors.Wait()
	s.coord.Close()
	return err
}

// results is the result store the server reads and the coordinator, its
// one writer, fills. Job documents (a one-unit job's id is its unit's key)
// and the unit results of multi-unit jobs sit in separate memory LRUs, so
// a sweep's units never evict an earlier job's document. Evicting a
// document forgets its finished job, disk tier or not, which bounds the
// job records; the optional disk tier behind both LRUs keeps every result.
type results struct {
	jobs, units *store.Memory
	disk        store.Store // Config.Store; nil without a persistent tier
	s           *Server
}

func (r *results) Get(key string) ([]byte, bool) {
	if v, ok := r.jobs.Get(key); ok {
		return v, true
	}
	if v, ok := r.units.Get(key); ok || r.disk == nil {
		return v, ok
	}
	v, ok := r.disk.Get(key)
	if ok {
		// Callers may hold s.mu, so a promotion must not evict job records.
		r.units.Put(key, v)
	}
	return v, ok
}

func (r *results) Put(key string, val []byte) (evicted []string) {
	if r.disk != nil {
		r.disk.Put(key, val)
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	if _, isJob := r.s.jobs[key]; !isJob {
		evicted = r.units.Put(key, val)
	} else {
		evicted = r.jobs.Put(key, val)
		for _, k := range evicted {
			if j, ok := r.s.jobs[k]; ok && j.state.Finished() {
				delete(r.s.jobs, k)
			}
		}
	}
	return evicted
}

// Len and SizeBytes count the disk tier when there is one, else both LRUs.
func (r *results) Len() int {
	if r.disk != nil {
		return r.disk.Len()
	}
	return r.jobs.Len() + r.units.Len()
}

func (r *results) SizeBytes() int64 {
	if r.disk != nil {
		return r.disk.SizeBytes()
	}
	return r.jobs.SizeBytes() + r.units.SizeBytes()
}

// captureFlight keeps a traced job's flight-recorder artifact, which its
// traced unit's completion carried (see RunSpec), and surfaces the
// watchdog counters and a job-scoped summary line.
func (s *Server) captureFlight(j *job, ev fleet.Event) {
	var f flightMember
	if err := json.Unmarshal(ev.Flight, &f); err != nil {
		j.log.Warn("job trace unreadable", "error", err)
		return
	}
	s.met.flightStalls.Add(f.StarvationFires)
	s.met.flightTail.Add(f.TailLatencyHits)
	s.mu.Lock()
	j.trace = f.Perfetto
	s.mu.Unlock()
	j.log.Info("job trace captured", "scheme", ev.Scheme, "benchmark", ev.Benchmark,
		"starvationFires", f.StarvationFires, "tailLatencyHits", f.TailLatencyHits,
		"traceBytes", len(f.Perfetto))
}

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs              submit a JobSpec; identical specs share one job ID
//	GET    /v1/jobs/{id}         status, progress, and (when done) the result JSON
//	GET    /v1/jobs/{id}/events  server-sent unit events until the job ends
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
	if retryAfter, ok := s.admitLocked(canon.class()); !ok {
		s.mu.Unlock()
		s.rejectSubmission(w, canon.class(), retryAfter)
		return
	}
	j = s.newJobLocked(key, canon, obs.RequestIDFrom(r.Context()))
	// Adopt the submitting request's trace: the job span outlives the HTTP
	// root span and collects every phase — per-unit lease waits and fleet
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
	j := &job{
		id:        key,
		spec:      canon,
		state:     JobQueued,
		submitted: time.Now(),
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
	s.live.Add(1)
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
	// Settle first: a unit finishing meanwhile then finds the job ended.
	// Withdrawing the units frees their queue slots at once and stops
	// in-process executors mid-run.
	if s.settle(j, JobCancelled, outcome{noSpans: true, logAttrs: []any{"via", "delete"}}) {
		s.coord.CancelJob(id)
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
