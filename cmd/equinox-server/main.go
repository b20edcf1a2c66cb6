// Command equinox-server runs the evaluation-as-a-service HTTP server: it
// accepts JSON sweep submissions, shards each into single-run work units
// that -workers in-process executors and any equinox-worker processes
// lease, and answers repeated queries from a content-addressed store.
//
// Usage:
//
//	equinox-server -addr :8080 -workers 2 -store-dir /var/lib/equinox -log-level info
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
// accepted jobs survive a crash too: the next boot replays the journal,
// re-queues every unfinished job, and converges to the identical result
// bytes (kill -9 mid-sweep loses nothing but time).
//
// Runtime profiling is exposed under /debug/pprof/ (CPU, heap, goroutine,
// …), so a loaded server can be profiled in place:
//
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=10
//	go tool pprof http://localhost:8080/debug/pprof/heap
//
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight jobs
// (bounded by -drain); jobs still unfinished then stay pending in the
// journal for the next boot.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"os/signal"
	"syscall"
	"time"

	"equinox/internal/fleet"
	"equinox/internal/fleet/store"
	"equinox/internal/obs"
	"equinox/internal/service"
)

// Connection time bounds of the production listener. There is deliberately
// no WriteTimeout: SSE event streams, large result downloads and
// /debug/pprof/profile write for as long as they need to.
const (
	// readHeaderTimeout bounds how long a client may take to send its
	// request headers, so stalled connections cannot pile up.
	readHeaderTimeout = 10 * time.Second
	// idleTimeout closes keep-alive connections with no request in flight.
	idleTimeout = 2 * time.Minute
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("equinox-server: ")
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "in-process unit executors (0 = GOMAXPROCS)")
		cache   = flag.Int("cache", 0, "in-memory result cache entries, for job documents and sweep units each (0 = default 128)")
		cacheBy = flag.Int64("cache-bytes", 0, "in-memory result cache byte bound, for each of the two (0 = entries only)")
		stDir   = flag.String("store-dir", "", "persistent result store directory (empty = memory only)")
		queue   = flag.Int("queue", 0, "work-unit queue depth (0 = default 4096)")
		shed    = flag.Float64("shed-fraction", 0, "unit-queue fill fraction past which batch submissions are shed with 429 (0 = default 0.75)")
		jrnDir  = flag.String("journal-dir", "", "crash-safe job journal directory; on restart, unfinished jobs are re-queued (empty = no journal)")
		drain   = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")

		leaseTTL = flag.Duration("lease-ttl", 0, "fleet work-unit lease TTL (0 = default 15s)")
		attempts = flag.Int("unit-attempts", 0, "fleet per-unit attempt budget (0 = default 3)")
		brkN     = flag.Int("breaker-threshold", 0, "consecutive worker failures that open its circuit (0 = default 3, negative = disabled)")
		brkCool  = flag.Duration("breaker-cooldown", 0, "open-circuit quarantine before a half-open probe (0 = default 30s)")

		traceTail   = flag.Duration("trace-tail", 0, "tail-sampling threshold: keep span traces only for jobs at least this slow (0 = keep all)")
		traceSample = flag.Int("trace-sample", 0, "with -trace-tail, also keep 1-in-N span traces of fast jobs (0 = none)")
		openMetrics = flag.Bool("openmetrics", false, "terminate /v1/metrics expositions with the OpenMetrics \"# EOF\" marker")

		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatal(err)
	}

	var persist store.Store
	if *stDir != "" {
		disk, err := store.OpenDisk(*stDir, logger)
		if err != nil {
			log.Fatal(err)
		}
		defer disk.Close()
		persist = disk
		log.Printf("persistent result store at %s (%d entries, %d bytes)",
			*stDir, disk.Len(), disk.SizeBytes())
	}

	var journal *service.Journal
	if *jrnDir != "" {
		journal, err = service.OpenJournal(*jrnDir, logger)
		if err != nil {
			log.Fatal(err)
		}
		defer journal.Close()
		log.Printf("job journal at %s (%d unfinished jobs to recover)",
			*jrnDir, len(journal.Pending()))
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
	// net/http/pprof registers on the default mux; route its prefix there.
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	httpSrv := newHTTPServer(mux)

	// Listen before announcing so "-addr :0" logs the real port —
	// scripts (and the fleet smoke test) parse it to find the server.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	log.Printf("listening on %s", ln.Addr())

	select {
	case err := <-errc:
		log.Fatal(err)
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
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("serve: %v", err)
	}
}
