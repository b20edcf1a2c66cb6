// Package fleet is the job server's one execution path: a coordinator that
// shards every job into per-(scheme, benchmark) work units — each a
// canonical single-run job spec with its own content key — and the workers
// that lease and run them with the ordinary evaluation harness. Remote
// workers (cmd/equinox-worker) speak HTTP (POST /v1/fleet/lease, /complete,
// /heartbeat; see NewWorker); the job server's own executors call the
// coordinator directly (Coordinator.LocalWorker) and, when idle, block
// until a unit is queued instead of polling. Leases carry a TTL renewed by
// heartbeats; a crashed worker's units are re-leased after the TTL
// expires, and a unit that keeps failing is retried with backoff a bounded
// number of times before it is marked failed. Completed unit results are
// written to the shared content-addressed store (package store), so an
// overlapping sweep — on any node — reuses every unit already computed.
//
// Because each unit runs the same simulator with the same seed as the
// corresponding run of a single-process sweep, and the design search is
// deterministic, the assembled evaluation is byte-identical to a
// single-process run of the same spec (modulo wall-clock phase timings,
// which the canonical form strips — see CanonicalResult).
package fleet

import (
	"encoding/json"

	"equinox/internal/obs/trace"
)

// Class is a queue priority class. Interactive jobs (small sweeps a
// human is waiting on) are dequeued ahead of batch jobs at a fixed
// weight ratio, so a million-spec sweep cannot starve them.
type Class int

// The two priority classes.
const (
	Interactive Class = iota
	Batch

	numClasses = 2
)

// classWeights are the weighted-fair dequeue shares: for every unit of
// batch service, interactive gets up to three.
var classWeights = [numClasses]int64{3, 1}

// String returns the class's wire/log name.
func (c Class) String() string {
	if c == Batch {
		return "batch"
	}
	return "interactive"
}

// Unit is one leasable work unit: a single (scheme, benchmark) run of a
// sharded job. Spec is the unit's canonical JobSpec JSON — itself a valid
// single-run job — and Key is its content address, which doubles as the
// unit's identity in the result store.
type Unit struct {
	JobID     string          `json:"jobId"`
	Key       string          `json:"key"`
	Scheme    string          `json:"scheme"`
	Benchmark string          `json:"benchmark"`
	Spec      json.RawMessage `json:"spec"`
	// TraceParent is the W3C trace context of the coordinator-side unit
	// span; a tracing worker joins it so its spans stitch under the job's
	// trace. Empty when the job has no trace. Excluded from content keys
	// (it rides the lease grant, not the spec).
	TraceParent string `json:"traceParent,omitempty"`
	// Rerun makes SubmitJob run the unit even when its result is stored:
	// a traced unit's flight-recorder artifact exists only if it runs.
	Rerun bool `json:"-"`
}

// Event is a job progress notification delivered to the coordinator's
// submitter (the job server streams them to clients as SSE).
type Event struct {
	// Type is "unit" for unit lifecycle events, "cache" for unit-level
	// store hits, or "telemetry" for a completed unit's windowed
	// telemetry summary (emitted just before the unit's completed event
	// when the worker shipped one).
	Type string `json:"type"`
	// Status qualifies unit events: leased, completed, failed, or
	// retrying.
	Status    string `json:"status,omitempty"`
	Scheme    string `json:"scheme,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	UnitKey   string `json:"unitKey,omitempty"`
	// Done and Total count finished units; Total is the job's unit count.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Err carries the failure message of failed/retrying units.
	Err string `json:"error,omitempty"`
	// Spans is set on terminal job events when an assembled span trace is
	// available at GET /v1/jobs/{id}/spans.
	Spans bool `json:"spans,omitempty"`
	// Telemetry carries the unit's telemetry.RunSummary array on
	// "telemetry" events — the same block embedded in the unit's
	// evaluation document.
	Telemetry json.RawMessage `json:"telemetry,omitempty"`
	// Flight is CompleteRequest.Flight on the unit's completed event, for
	// the job's callbacks only: it is never streamed.
	Flight json.RawMessage `json:"-"`
}

// Wire types of the coordinator/worker HTTP protocol.

// LeaseRequest asks the coordinator for one work unit.
type LeaseRequest struct {
	// Worker is the worker's self-chosen stable name; first contact
	// registers it.
	Worker string `json:"worker"`
}

// LeaseResponse grants a unit under a lease. The worker must complete the
// unit or keep the lease alive via heartbeats before TTLMillis elapses,
// or the unit is re-leased to another worker.
type LeaseResponse struct {
	LeaseID   string `json:"leaseId"`
	TTLMillis int64  `json:"ttlMillis"`
	Unit      Unit   `json:"unit"`
}

// CompleteRequest reports a unit's outcome: Result (the unit's evaluation
// JSON) on success, or Error on failure.
type CompleteRequest struct {
	LeaseID string          `json:"leaseId"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
	// Final marks Error as one every attempt would repeat (the RunFunc
	// returned a Permanent error): the unit fails without a retry.
	Final bool `json:"final,omitempty"`
	// Spans carries the worker's finished spans for the unit (present only
	// when the lease carried a TraceParent and the worker traces); the
	// coordinator stitches them into the job's trace.
	Spans []trace.SpanRecord `json:"spans,omitempty"`
	// Telemetry is the "telemetry" block of Result (the unit's windowed
	// telemetry summaries), extracted by the worker so the coordinator can
	// stream it as a live event without re-parsing the full document.
	Telemetry json.RawMessage `json:"telemetry,omitempty"`
	// Flight is the flight-recorder artifact of a traced unit, lifted by
	// the worker out of the document the Run function returned (a leading
	// "flight" member) so that it never reaches the store or the result.
	Flight json.RawMessage `json:"flight,omitempty"`
}

// HeartbeatRequest renews a worker's leases and marks it alive.
type HeartbeatRequest struct {
	Worker   string   `json:"worker"`
	LeaseIDs []string `json:"leaseIds,omitempty"`
}

// HeartbeatResponse lists submitted leases that are no longer wanted
// (cancelled job, lease already expired and re-granted); the worker
// should abort those units and discard their results.
type HeartbeatResponse struct {
	Canceled []string `json:"canceled,omitempty"`
}
