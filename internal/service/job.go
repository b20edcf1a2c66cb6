package service

import (
	"context"
	"encoding/json"
	"log/slog"
	"sync/atomic"
	"time"

	obstrace "equinox/internal/obs/trace"
)

// JobState is a job's lifecycle stage.
type JobState string

// The job lifecycle: queued → running → done | failed | cancelled.
// Cancellation can also strike a job while it is still queued. The full
// edge table, and the only code that walks it, is in lifecycle.go.
const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Finished reports whether the state is terminal.
func (s JobState) Finished() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// job is the server-side record of one submission. Every field except
// doneRuns is guarded by the server's mutex; doneRuns is written by the
// harness's progress callback while the server reads it for status.
type job struct {
	id   string // content key of the canonical spec
	spec JobSpec

	state  JobState
	errMsg string

	submitted time.Time
	started   time.Time
	finished  time.Time

	ctx    context.Context
	cancel context.CancelFunc

	// log is the job-scoped logger, pre-bound with the job ID (the spec
	// hash), the submitting request's ID, schemes, and benchmark count;
	// every lifecycle transition logs through it.
	log *slog.Logger

	// requestID is the X-Request-Id of the submission that created the job,
	// correlating the job's whole lifecycle with the client's request.
	requestID string

	// trace is the rendered Perfetto artifact of a Trace-flagged job
	// (GET /v1/jobs/{id}/trace); nil until the job completes.
	trace []byte

	// telemetry is the assembled per-run telemetry summary array of a
	// Telemetry-flagged job (GET /v1/jobs/{id}/telemetry), extracted from
	// the result document's "telemetry" block; nil until the job completes
	// (or when every unit came from a cache entry computed without
	// telemetry).
	telemetry []byte

	// tr collects the job's distributed spans (adopted from the submitting
	// request's trace) and span is the root "job" span unit and phase spans
	// hang from; spans is the rendered trace-event artifact served at
	// GET /v1/jobs/{id}/spans once the job finishes and survives tail
	// sampling.
	tr    *obstrace.Trace
	span  *obstrace.Span
	spans []byte

	// events fans job progress out to SSE subscribers
	// (GET /v1/jobs/{id}/events); closed after the terminal event.
	events *eventHub

	doneRuns  atomic.Int64
	totalRuns int
}

// JobStatus is the wire form of a job's state (GET /v1/jobs/{id}).
type JobStatus struct {
	ID     string      `json:"id"`
	Status JobState    `json:"status"`
	Runs   JobProgress `json:"progress"`
	Error  string      `json:"error,omitempty"`
	// RequestID echoes the X-Request-Id of the submission that created the
	// job.
	RequestID string `json:"requestId,omitempty"`

	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`

	// Result is the evaluation JSON (Evaluation.WriteJSON's document,
	// compacted) once the job is done and its result is still cached: the
	// stored bytes as they are. The server splices them in after marshalling
	// the other fields (writeStatus) and never sets this field itself.
	Result json.RawMessage `json:"result,omitempty"`
}

// JobProgress counts completed (scheme, benchmark) simulations.
type JobProgress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// status snapshots the job; callers hold the server mutex.
func (j *job) status() JobStatus {
	st := JobStatus{
		ID:          j.id,
		Status:      j.state,
		Runs:        JobProgress{Done: int(j.doneRuns.Load()), Total: j.totalRuns},
		Error:       j.errMsg,
		RequestID:   j.requestID,
		SubmittedAt: j.submitted,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	return st
}
