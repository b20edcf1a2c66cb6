// Command equinox-worker is a fleet worker: it pulls evaluation work
// units from an equinox-server coordinator over HTTP, executes them with
// the ordinary simulation harness, and posts the results back. Run any
// number of workers against one coordinator — on the same machine or
// across a cluster — and multi-run sweeps shard across all of them.
//
// Usage:
//
//	equinox-worker -coordinator http://localhost:8080 -parallelism 2
//
// Workers hold no state: results live in the coordinator's store. A
// killed worker loses nothing — its leased units are re-leased to the
// rest of the fleet after the lease TTL. SIGINT/SIGTERM stop the worker;
// in-flight units are abandoned and re-leased the same way. A worker
// started before its coordinator waits for it with capped backoff and
// exits nonzero only once -connect-timeout elapses.
//
// With -pprof-addr the worker serves /debug/pprof/ and its own
// /v1/metrics exposition (with an equinox_build_info gauge) on a
// separate listener:
//
//	equinox-worker -coordinator http://localhost:8080 -pprof-addr localhost:6060
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//	curl http://localhost:6060/v1/metrics
//
// Each worker also joins the coordinator's distributed traces: leases carry
// a traceparent, and the worker's per-unit spans ship back with the result.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on http.DefaultServeMux
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"equinox/internal/fleet"
	"equinox/internal/obs"
	"equinox/internal/obs/trace"
	"equinox/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("equinox-worker: ")
	var (
		coordinator = flag.String("coordinator", "http://localhost:8080", "coordinator base URL")
		name        = flag.String("name", "", "stable worker name (default host-pid)")
		parallel    = flag.Int("parallelism", 1, "units executed concurrently")
		unitPar     = flag.Int("unit-parallelism", 0, "per-unit simulation parallelism (0 = GOMAXPROCS/parallelism)")
		poll        = flag.Duration("poll", 500*time.Millisecond, "lease poll interval while idle")
		heartbeat   = flag.Duration("heartbeat", 2*time.Second, "lease renewal interval (keep well under the coordinator's lease TTL)")
		connectTO   = flag.Duration("connect-timeout", 2*time.Minute, "budget for the initial coordinator connection; retried with capped backoff, exit nonzero once it elapses")
		pprofAddr   = flag.String("pprof-addr", "", "listen address for /debug/pprof and /v1/metrics (empty = disabled)")
		openMetrics = flag.Bool("openmetrics", false, "terminate /v1/metrics expositions with the OpenMetrics \"# EOF\" marker")

		logLevel  = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		log.Fatal(err)
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
	runPar := *unitPar
	if runPar <= 0 {
		runPar = runtime.GOMAXPROCS(0) / *parallel
		if runPar < 1 {
			runPar = 1
		}
	}

	if *pprofAddr != "" {
		// The sidecar listener carries the worker's own observability:
		// /v1/metrics (build-info gauge, same exposition format as the
		// coordinator's endpoint) plus /debug/pprof/, which net/http/pprof
		// registers on the default mux. A dedicated listener means neither
		// ever rides the coordinator connection.
		ln, lerr := net.Listen("tcp", *pprofAddr)
		if lerr != nil {
			log.Fatal(lerr)
		}
		reg := obs.NewRegistry()
		obs.RegisterBuildInfo(reg)
		reg.SetOpenMetricsEOF(*openMetrics)
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			reg.WritePrometheus(w) //nolint:errcheck
		})
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		go func() {
			if serr := http.Serve(ln, mux); serr != nil {
				log.Printf("pprof serve: %v", serr)
			}
		}()
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
			return service.RunSpec(ctx, u.Spec, runPar)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	// A worker booted alongside (or before) its coordinator waits for it
	// rather than crash-looping; only an exhausted budget is fatal.
	if err := w.WaitReady(ctx, *connectTO); err != nil {
		if errors.Is(err, context.Canceled) {
			return
		}
		log.Fatal(err)
	}
	log.Printf("worker %s pulling from %s (parallelism %d, unit parallelism %d)",
		*name, *coordinator, *parallel, runPar)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Fatal(err)
	}
}
