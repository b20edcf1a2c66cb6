package fleet

import "equinox/internal/obs"

// Metrics are the coordinator's instruments, registered on the server's
// shared registry so they appear on GET /v1/metrics next to the job
// counters. Worker-labelled families stay bounded because fleet sizes
// are: one child per live worker name. An expired worker's children go
// with it, so worker restarts under new names do not grow them.
type Metrics struct {
	JobsSharded    *obs.Counter
	UnitsCompleted *obs.Counter
	UnitsFailed    *obs.Counter
	UnitsRetried   *obs.Counter
	UnitCacheHits  *obs.Counter
	LeasesExpired  *obs.Counter

	// UnitDuration observes each completed unit's grant-to-complete wall
	// time by scheme, so unit-level latency is visible from /v1/metrics
	// without pulling a trace.
	UnitDuration *obs.HistogramVec

	// WorkerLastSeen carries the unix timestamp of each worker's last
	// lease or heartbeat; alerting on now() - value is the standard
	// liveness check.
	WorkerLastSeen *obs.GaugeVec
	// WorkerBusy is 1 while a worker holds at least one lease.
	WorkerBusy *obs.GaugeVec
	// WorkerCircuit is each worker's circuit-breaker state: 0 closed,
	// 1 half-open, 2 open (quarantined after consecutive failures).
	WorkerCircuit *obs.GaugeVec
}

// NewMetrics registers the fleet metric families on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		JobsSharded: reg.Counter("equinox_fleet_jobs_sharded_total",
			"Jobs sharded into work units and fanned out to fleet workers."),
		UnitsCompleted: reg.Counter("equinox_fleet_units_completed_total",
			"Work units completed successfully by fleet workers."),
		UnitsFailed: reg.Counter("equinox_fleet_units_failed_total",
			"Work units marked failed after exhausting their retry budget."),
		UnitsRetried: reg.Counter("equinox_fleet_units_retried_total",
			"Work-unit retries (failed attempts and expired leases re-queued)."),
		UnitCacheHits: reg.Counter("equinox_fleet_unit_cache_hits_total",
			"Work units answered from the content-addressed result store."),
		LeasesExpired: reg.Counter("equinox_fleet_leases_expired_total",
			"Leases that expired without completion (crashed or stalled workers)."),
		UnitDuration: reg.HistogramVec("equinox_fleet_unit_duration_seconds",
			"Wall time from lease grant to successful completion, by scheme.",
			obs.DefaultLatencyBuckets(), "scheme"),
		WorkerLastSeen: reg.GaugeVec("equinox_fleet_worker_last_seen_timestamp_seconds",
			"Unix time of each worker's last lease or heartbeat.", "worker"),
		WorkerBusy: reg.GaugeVec("equinox_fleet_worker_busy",
			"1 while the worker holds at least one lease, else 0.", "worker"),
		WorkerCircuit: reg.GaugeVec("equinox_worker_circuit_state",
			"Worker circuit-breaker state: 0 closed, 1 half-open, 2 open.", "worker"),
	}
}
