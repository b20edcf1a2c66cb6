package service

import (
	"equinox/internal/obs"
	"equinox/internal/telemetry"
)

// metrics are the server's instruments, registered on one obs.Registry and
// exported as Prometheus text exposition at GET /v1/metrics. Counter and
// gauge names predate the registry and are kept stable for scrapers.
type metrics struct {
	reg  *obs.Registry
	http *obs.HTTPMetrics

	jobsSubmitted *obs.Counter // accepted and enqueued for execution
	jobsDeduped   *obs.Counter // submissions coalesced onto an in-flight job
	jobsCompleted *obs.Counter
	jobsFailed    *obs.Counter
	jobsCancelled *obs.Counter
	jobsRecovered *obs.Counter // re-queued from the journal after a restart

	// admissionRejected counts submissions shed with 429, by priority
	// class; chaosInjected counts faults fired by an attached chaos
	// injector, by fault kind (zero outside chaos runs, but the family is
	// always exported so dashboards can pin it).
	admissionRejected *obs.CounterVec
	chaosInjected     *obs.CounterVec

	cacheHits   *obs.Counter // submissions answered from the result cache
	cacheMisses *obs.Counter // submissions that had to simulate

	workersBusy *obs.Gauge

	// queueWait tracks how long jobs sat queued before a worker picked them
	// up, in seconds.
	queueWait obs.BoundHistogram

	// Flight-recorder anomaly counters, aggregated from Trace-flagged jobs.
	flightStalls *obs.Counter
	flightTail   *obs.Counter

	// simSaturated and simWarmup report the saturation flag (0/1) and
	// detected warmup length of the most recently completed telemetry-
	// instrumented run — sweep-sweep dashboards watch the saturated gauge
	// flip as an injection-rate sweep crosses the knee.
	simSaturated *obs.Gauge
	simWarmup    *obs.Gauge
}

// newMetrics builds the registry. The workers / queue-depth / cache
// gauges are scrape-time callbacks supplied by the server, replacing the
// values it used to thread into an ad-hoc text writer.
func newMetrics(workers, queueDepth, cacheEntries, cacheBytes func() float64) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:  reg,
		http: obs.NewHTTPMetrics(reg, "equinox"),

		jobsSubmitted: reg.Counter("equinox_jobs_submitted_total",
			"Jobs accepted and enqueued for execution."),
		jobsDeduped: reg.Counter("equinox_jobs_deduped_total",
			"Submissions coalesced onto an already queued or running job."),
		jobsCompleted: reg.Counter("equinox_jobs_completed_total",
			"Jobs that finished successfully."),
		jobsFailed: reg.Counter("equinox_jobs_failed_total",
			"Jobs that finished with an error."),
		jobsCancelled: reg.Counter("equinox_jobs_cancelled_total",
			"Jobs cancelled while queued or running."),
		jobsRecovered: reg.Counter("equinox_jobs_recovered_total",
			"Jobs re-queued from the crash journal after a restart."),

		admissionRejected: reg.CounterVec("equinox_admission_rejected_total",
			"Submissions rejected with 429 by admission control, by priority class.",
			"class"),
		chaosInjected: reg.CounterVec("equinox_chaos_injected_total",
			"Faults fired by the attached chaos injector, by fault kind.",
			"kind"),

		cacheHits: reg.Counter("equinox_cache_hits_total",
			"Submissions answered from the content-addressed result cache."),
		cacheMisses: reg.Counter("equinox_cache_misses_total",
			"Submissions that had to run simulations."),

		workersBusy: reg.Gauge("equinox_workers_busy",
			"Workers currently executing a job."),

		queueWait: reg.Histogram("equinox_job_queue_wait_seconds",
			"Time jobs spent queued before a worker picked them up.",
			obs.DefaultLatencyBuckets()),

		flightStalls: reg.Counter("equinox_flight_stall_total",
			"Starvation-watchdog firings across traced jobs."),
		flightTail: reg.Counter("equinox_flight_tail_latency_total",
			"Deliveries exceeding the flight recorder's latency bound across traced jobs."),
	}
	m.simSaturated = reg.Gauge("equinox_sim_saturated",
		"Whether the most recently completed telemetry-instrumented run saturated (1) or not (0).")
	m.simWarmup = reg.Gauge("equinox_sim_warmup_cycles",
		"Detected warmup length (cycles to steady state) of the most recently completed telemetry-instrumented run; 0 when no steady state was reached.")

	reg.GaugeFunc("equinox_workers", "Size of the evaluation worker pool.", workers)
	reg.GaugeFunc("equinox_queue_depth", "Jobs waiting in the submission queue.", queueDepth)
	reg.GaugeFunc("equinox_cache_entries", "Entries in the result cache.", cacheEntries)
	reg.GaugeFunc("equinox_cache_bytes", "Approximate bytes of cached result payloads.", cacheBytes)
	obs.RegisterBuildInfo(reg)
	return m
}

// observeTelemetry exports one run's detector verdicts to the
// equinox_sim_saturated / equinox_sim_warmup_cycles gauges.
func (m *metrics) observeTelemetry(sum telemetry.RunSummary) {
	if sum.Saturated {
		m.simSaturated.Set(1)
	} else {
		m.simSaturated.Set(0)
	}
	m.simWarmup.Set(float64(sum.WarmupCycles))
}
