package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"sync"
	"time"

	"equinox/internal/fleet"
	"equinox/internal/fleet/store"
	"equinox/internal/obs"
	"equinox/internal/obs/trace"
	"equinox/internal/service"
)

// Connection time bounds of every listener: serve's, and worker's
// -pprof-addr. There is deliberately no WriteTimeout: SSE event streams,
// large result downloads and /debug/pprof/profile write for as long as they
// need to. Variables only so tests can shorten them.
var (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so stalled connections cannot pile up.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections with no request in flight.
	idleTimeout = 2 * time.Minute
)

// newHTTPServer serves mux, with net/http/pprof's /debug/pprof/ routed in
// beside it, within the connection time bounds above.
//
// Its Shutdown closes at once every connection that has not sent a request
// yet. http.Server counts such a connection as busy for its first 5 s, and
// net/http's client leaves exactly those behind: a dial it started for a
// request that then went out on a connection freed meanwhile is parked
// unused in the client's idle pool. One such spare held serve's drain for
// 5 s.
func newHTTPServer(mux *http.ServeMux) *http.Server {
	// net/http/pprof registers on the default mux; route its prefix there.
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
	var (
		mu       sync.Mutex
		unused   = map[net.Conn]bool{}
		shutting bool
	)
	srv.ConnState = func(c net.Conn, st http.ConnState) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case st != http.StateNew:
			delete(unused, c)
		case shutting: // accepted just before the listener closed
			c.Close()
		default:
			unused[c] = true
		}
	}
	srv.RegisterOnShutdown(func() {
		mu.Lock()
		defer mu.Unlock()
		shutting = true
		for c := range unused {
			c.Close()
		}
	})
	return srv
}

// logFlags defines -log-level and -log-format and returns the constructor
// of the structured stderr logger they select.
func logFlags(fs *flag.FlagSet) func() (*slog.Logger, error) {
	level := fs.String("log-level", "info", "structured log level: debug, info, warn, error")
	format := fs.String("log-format", "text", "structured log format: text or json")
	return func() (*slog.Logger, error) { return obs.NewLogger(os.Stderr, *level, *format) }
}

// serveCommand runs the evaluation-as-a-service HTTP server: it accepts
// JSON sweep submissions, shards each into single-run work units that
// -workers in-process executors and any `equinox worker` processes lease,
// and answers repeated queries from a content-addressed store:
//
//	equinox serve -addr :8080 -workers 2 -store-dir /var/lib/equinox -log-level info
//
//	curl -s localhost:8080/v1/jobs -d '{"benchmarks":["kmeans"],"schemes":["EquiNox","SeparateBase"]}'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -sN localhost:8080/v1/jobs/<id>/events
//	curl -s localhost:8080/v1/jobs/<id>/spans > spans.json   # Perfetto trace
//	curl -s -X DELETE localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/v1/metrics
//
// Responses are compact JSON. A finished job's "result" member is the
// stored evaluation document verbatim (compacted once, when the job
// completed), so read it with `curl -s localhost:8080/v1/jobs/<id> | jq
// .result`.
//
// With -store-dir, completed results persist on disk and survive restarts;
// coordinators sharing a directory share results. With -journal-dir,
// accepted jobs survive a crash too: each is one durable object there until
// it finishes, and the next boot re-queues every unfinished job and
// converges to the identical result bytes (kill -9 mid-sweep loses nothing
// but time).
//
// Runtime profiling is exposed under /debug/pprof/ (CPU, heap, goroutine,
// …), so a loaded server can be profiled in place:
//
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
//	go tool pprof http://localhost:8080/debug/pprof/heap
//
// Cancelling the context (SIGINT/SIGTERM) triggers a graceful shutdown that
// drains in-flight jobs (bounded by -drain); jobs still unfinished then
// stay pending in the journal for the next boot.
func serveCommand(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	var (
		addr    = fs.String("addr", ":8080", "listen address")
		workers = fs.Int("workers", 0, "in-process unit executors (0 = GOMAXPROCS)")
		cache   = fs.Int("cache", 0, "in-memory result cache entries, for job documents and sweep units each (0 = default 128)")
		cacheBy = fs.Int64("cache-bytes", 0, "in-memory result cache byte bound, for each of the two (0 = entries only)")
		stDir   = fs.String("store-dir", "", "persistent result store directory (empty = memory only)")
		queue   = fs.Int("queue", 0, "work-unit queue depth (0 = default 4096)")
		shed    = fs.Float64("shed-fraction", 0, "unit-queue fill fraction past which batch submissions are shed with 429 (0 = default 0.75)")
		jrnDir  = fs.String("journal-dir", "", "crash-safe job journal directory; on restart, unfinished jobs are re-queued (empty = no journal)")
		drain   = fs.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")

		leaseTTL = fs.Duration("lease-ttl", 0, "fleet work-unit lease TTL (0 = default 15s)")
		attempts = fs.Int("unit-attempts", 0, "fleet per-unit attempt budget (0 = default 3)")
		brkN     = fs.Int("breaker-threshold", 0, "consecutive worker failures that open its circuit (0 = default 3, negative = disabled)")
		brkCool  = fs.Duration("breaker-cooldown", 0, "open-circuit quarantine before a half-open probe (0 = default 30s)")

		traceTail   = fs.Duration("trace-tail", 0, "tail-sampling threshold: keep span traces only for jobs at least this slow (0 = keep all)")
		traceSample = fs.Int("trace-sample", 0, "with -trace-tail, also keep 1-in-N span traces of fast jobs (0 = none)")
		openMetrics = fs.Bool("openmetrics", false, "terminate /v1/metrics expositions with the OpenMetrics \"# EOF\" marker")

		newLogger = logFlags(fs)
	)
	return func(ctx context.Context, _ io.Writer) error {
		logger, err := newLogger()
		if err != nil {
			return err
		}

		var persist store.Store
		if *stDir != "" {
			disk, err := store.OpenDisk(*stDir, logger)
			if err != nil {
				return err
			}
			persist = disk
			log.Printf("persistent result store at %s (%d entries, %d bytes)",
				*stDir, disk.Len(), disk.SizeBytes())
		}

		var journal *service.Journal
		if *jrnDir != "" {
			journal, err = service.OpenJournal(*jrnDir, logger)
			if err != nil {
				return err
			}
			defer journal.Close()
			log.Printf("job journal at %s (%d unfinished jobs to recover)",
				*jrnDir, len(journal.Pending()))
		}

		// Listen before starting the service, so a bad -addr leaves nothing
		// running, and before announcing, so "-addr :0" logs the real port —
		// scripts (and the fleet smoke test) parse it to find the server.
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		svc := service.New(service.Config{
			Workers:      *workers,
			CacheEntries: *cache,
			CacheBytes:   *cacheBy,
			ShedFraction: *shed,
			Journal:      journal,
			Store:        persist,
			TraceTail:    *traceTail,
			TraceSample:  *traceSample,
			OpenMetrics:  *openMetrics,
			Fleet: fleet.Config{
				QueueDepth:       *queue,
				LeaseTTL:         *leaseTTL,
				MaxAttempts:      *attempts,
				BreakerThreshold: *brkN,
				BreakerCooldown:  *brkCool,
			},
			Logger: logger,
		})
		mux := http.NewServeMux()
		mux.Handle("/", svc.Handler())
		httpSrv := newHTTPServer(mux)

		errc := make(chan error, 1)
		go func() { errc <- httpSrv.Serve(ln) }()
		log.Printf("listening on %s", ln.Addr())

		select {
		case err := <-errc:
			return err
		case <-ctx.Done():
		}
		log.Printf("shutting down, draining in-flight jobs (up to %v) …", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		if err := svc.Shutdown(shutdownCtx); err != nil {
			log.Printf("drain incomplete, in-flight jobs cancelled: %v", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		return nil
	}
}

// workerCommand runs a remote fleet worker: it pulls evaluation work units
// — one simulation each — from an `equinox serve` coordinator over HTTP,
// executes them with the ordinary simulation harness, and posts the
// results back. Run any number of workers against one coordinator — on the
// same machine or across a cluster — and every job's units spread across
// them and the coordinator's own in-process executors:
//
//	equinox worker -coordinator http://localhost:8080 -parallelism 2
//
// Workers hold no state: results live in the coordinator's store. A
// killed worker loses nothing — its leased units are re-leased to the
// rest of the fleet after the lease TTL. Cancelling the context
// (SIGINT/SIGTERM) stops the worker; in-flight units are abandoned and
// re-leased the same way. A worker started before its coordinator waits
// for it with capped backoff and exits nonzero only once -connect-timeout
// elapses.
//
// With -pprof-addr the worker serves /debug/pprof/ and its own
// /v1/metrics exposition (with an equinox_build_info gauge) on a
// separate listener, within the same time bounds as serve's:
//
//	equinox worker -coordinator http://localhost:8080 -pprof-addr localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//	curl http://localhost:6060/v1/metrics
//
// Each worker also joins the coordinator's distributed traces: leases carry
// a traceparent, and the worker's per-unit spans ship back with the result.
func workerCommand(fs *flag.FlagSet) func(context.Context, io.Writer) error {
	var (
		coordinator = fs.String("coordinator", "http://localhost:8080", "coordinator base URL")
		name        = fs.String("name", "", "stable worker name (default host-pid)")
		parallel    = fs.Int("parallelism", 1, "units executed concurrently")
		poll        = fs.Duration("poll", 500*time.Millisecond, "lease poll interval while idle")
		heartbeat   = fs.Duration("heartbeat", 2*time.Second, "lease renewal interval (keep well under the coordinator's lease TTL)")
		connectTO   = fs.Duration("connect-timeout", 2*time.Minute, "budget for the initial coordinator connection; retried with capped backoff, exit nonzero once it elapses")
		pprofAddr   = fs.String("pprof-addr", "", "listen address for /debug/pprof and /v1/metrics (empty = disabled)")
		openMetrics = fs.Bool("openmetrics", false, "terminate /v1/metrics expositions with the OpenMetrics \"# EOF\" marker")

		newLogger = logFlags(fs)
	)
	return func(ctx context.Context, _ io.Writer) error {
		logger, err := newLogger()
		if err != nil {
			return err
		}
		if *name == "" {
			host, herr := os.Hostname()
			if herr != nil {
				host = "worker"
			}
			*name = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		if *parallel < 1 {
			*parallel = 1
		}

		if *pprofAddr != "" {
			// The sidecar listener carries the worker's own observability:
			// /v1/metrics (build-info gauge, same exposition format as the
			// coordinator's endpoint) plus /debug/pprof/. A dedicated
			// listener means neither ever rides the coordinator connection.
			ln, err := net.Listen("tcp", *pprofAddr)
			if err != nil {
				return err
			}
			reg := obs.NewRegistry()
			obs.RegisterBuildInfo(reg)
			reg.SetOpenMetricsEOF(*openMetrics)
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
				reg.WritePrometheus(w) //nolint:errcheck
			})
			debugSrv := newHTTPServer(mux)
			go func() {
				if err := debugSrv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
					log.Printf("pprof serve: %v", err)
				}
			}()
			defer debugSrv.Close()
			log.Printf("pprof on http://%s/debug/pprof/, metrics on http://%s/v1/metrics", ln.Addr(), ln.Addr())
		}

		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator:       *coordinator,
			Name:              *name,
			Parallelism:       *parallel,
			PollInterval:      *poll,
			HeartbeatInterval: *heartbeat,
			Logger:            logger,
			Tracer:            trace.NewTracer(*name),
			Run: func(ctx context.Context, u fleet.Unit) ([]byte, error) {
				return service.RunSpec(ctx, u.Spec, 1) // a unit is one run
			},
		})
		if err != nil {
			return err
		}
		// A worker booted alongside (or before) its coordinator waits for
		// it rather than crash-looping; only an exhausted budget is fatal.
		if err := w.WaitReady(ctx, *connectTO); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil
			}
			return err
		}
		log.Printf("worker %s pulling from %s (parallelism %d)", *name, *coordinator, *parallel)
		if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		return nil
	}
}
