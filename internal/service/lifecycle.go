package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"slices"
	"time"

	"equinox/internal/fleet"
	"equinox/internal/obs/trace"
)

// edges is the job state machine, state → legal successors. This file owns
// it: step is the only assignment to a job's state, dispatch the one way a
// job becomes runnable, settle the one way it ends.
//
//	queued  → running    a local worker popped it (run), or dispatch handed it to the fleet
//	queued  → cancelled  DELETE before any worker got to it
//	running → done       finish (local run) or the coordinator's OnDone (sharded)
//	running → failed     likewise, with an error
//	running → cancelled  DELETE, or the shutdown deadline cutting the run short
//	running → queued     dispatch only: the fleet refused the hand-off, so the
//	                     job falls back to the local pool
//
// Terminal states have no successors, which makes every ending exactly-once:
// the second of two racing endings finds no edge.
var edges = map[JobState][]JobState{
	JobQueued:  {JobRunning, JobCancelled},
	JobRunning: {JobDone, JobFailed, JobCancelled, JobQueued},
}

// step moves the job along one edge and reports whether that edge exists
// from its current state. False is a lost race — the job already moved on
// — and changes nothing. Callers hold the server mutex.
func (j *job) step(to JobState) bool {
	if !slices.Contains(edges[j.state], to) {
		return false
	}
	j.state = to
	return true
}

// shardable reports whether a fresh job goes to the fleet rather than the
// local pool: multi-run sweeps while workers are alive (workers behind an
// open circuit breaker don't count). Trace-flagged jobs always run
// locally — the flight recorder's artifact is process-local state.
func (s *Server) shardable(spec JobSpec) bool {
	return !spec.Trace && spec.Runs() > 1 && s.coord.ActiveWorkers() > 0
}

// dispatch is the one way in: it makes a freshly registered job runnable.
// The caller registered j under s.mu and still holds it; dispatch releases
// it. Shardable jobs go to the coordinator and fall back to the local queue
// when it refuses them. Returns the state the job was accepted in, or — the
// local queue refused it too — unregisters the job and returns the error.
// Only accepted jobs are counted.
func (s *Server) dispatch(j *job, recovered bool) (JobState, error) {
	// The submit record lands before any worker can run (and finish) the
	// job, so it always precedes the terminal record. A recovered job's is
	// in the journal already.
	if s.cfg.Journal != nil && !recovered {
		if raw, err := json.Marshal(j.spec); err != nil {
			s.log.Warn("journal: spec marshal failed", "jobId", j.id, "error", err.Error())
		} else {
			s.cfg.Journal.Submit(j.id, raw)
		}
	}
	state, how := JobQueued, []any{"priority", j.spec.Priority}
	if s.shardable(j.spec) {
		j.step(JobRunning)
		j.started = time.Now()
		// The coordinator fires callbacks synchronously for store-cached
		// units, and a fully cached job settles before SubmitJob returns.
		s.mu.Unlock()
		ferr := s.submitSharded(j)
		s.mu.Lock()
		switch {
		case ferr == nil:
			state, how = JobRunning, []any{"sharded", true}
		case j.step(JobQueued):
			// Fleet queue saturated (or unit derivation failed): degrade
			// to the local pool.
			j.started = time.Time{}
			how = []any{"fleetFallback", ferr.Error()}
		default:
			// A DELETE landed during the hand-off; it stands.
			state = j.state
		}
	}
	if state == JobQueued {
		if err := s.queue.Push(j, j.spec.class()); err != nil {
			delete(s.jobs, j.id)
			s.mu.Unlock()
			if !recovered {
				// Close the submit record out, or a restart would resurrect
				// a job the client saw rejected. (A recovered job stays
				// pending instead: the next restart retries it.)
				s.cfg.Journal.Terminal(j.id, JobCancelled)
			}
			return "", err
		}
	}
	s.mu.Unlock()
	s.met.jobsSubmitted.Add(1)
	if recovered {
		s.met.jobsRecovered.Add(1)
		j.log.Info("job recovered from journal", "state", state)
		return state, nil
	}
	s.met.cacheMisses.Add(1)
	j.log.Info("job submitted", append([]any{"state", state, "cache", "miss", "runs", j.totalRuns}, how...)...)
	return state, nil
}

// outcome is what a terminal edge carries besides its target state. The
// zero value is the common case; the fields are the only places where the
// endings legitimately differ.
type outcome struct {
	err    error  // failed: the job's error, also sent on the terminal frame
	result []byte // done: the evaluation document, stored compacted under the job's id
	flight []byte // done: rendered flight-recorder artifact of a Trace-flagged job

	// keepPending skips the terminal journal record. Set only by the
	// shutdown-cancel: the job stays pending in the journal so the next
	// process recovers it.
	keepPending bool
	// noSpans skips the span artifact. Set only by DELETE: the run is still
	// unwinding, so its trace cannot be assembled yet (/spans answers 404).
	noSpans bool
	// logAttrs are appended to the lifecycle log line.
	logAttrs []any
}

// settle is the one way out: it moves j to the terminal state `to` and
// runs the terminal sequence — state and finish time, result store (done
// only), counter, journal record, span artifact, log line, terminal SSE
// frame, hub close — exactly once, in that order. It returns false, having
// changed nothing, when the edge table has no such edge: the job already
// ended (a DELETE raced with completion, or the other way round). A done
// job's document is compacted before it is stored; one that is not JSON
// ends the job failed instead.
func (s *Server) settle(j *job, to JobState, o outcome) bool {
	now := time.Now()
	if to == JobDone {
		// The stored document is what GET /v1/jobs/{id} serves verbatim, so
		// it is rendered compact here, once, rather than on every request.
		var buf bytes.Buffer
		buf.Grow(len(o.result))
		if err := json.Compact(&buf, o.result); err != nil {
			to, o.err = JobFailed, fmt.Errorf("service: the evaluation document is not JSON: %w", err)
		} else {
			o.result = buf.Bytes()
		}
	}
	var tel []byte
	if to == JobDone && j.spec.Telemetry {
		// The document carries every run's telemetry block (units answered
		// from telemetry-less cache entries contribute none).
		tel = telemetryArtifact(o.result)
	}
	var errMsg string
	if o.err != nil {
		errMsg = o.err.Error()
	}
	s.mu.Lock()
	if !j.step(to) {
		s.mu.Unlock()
		return false
	}
	j.finished = now
	j.errMsg = errMsg
	ran := !j.started.IsZero() // false for a job cancelled while queued
	elapsed := now.Sub(j.started)
	if to == JobDone {
		j.trace, j.telemetry = o.flight, tel
		for _, k := range s.store.Put(j.id, o.result) {
			delete(s.jobs, k) // evicted results take their job records along
		}
	}
	s.mu.Unlock()

	count, level, msg := s.met.jobsCancelled, slog.LevelInfo, "job cancelled"
	switch to {
	case JobDone:
		count, msg = s.met.jobsCompleted, "job completed"
	case JobFailed:
		count, level, msg = s.met.jobsFailed, slog.LevelError, "job failed"
	}
	count.Add(1)
	if !o.keepPending {
		s.cfg.Journal.Terminal(j.id, to) // no-op without a journal
	}
	hasSpans := !o.noSpans && s.captureSpans(j, to, elapsed)

	attrs := []any{"state", to}
	if errMsg != "" {
		attrs = append(attrs, "error", errMsg)
	}
	if ran {
		attrs = append(attrs, "runMs", durMS(elapsed))
	}
	attrs = append(attrs, o.logAttrs...)
	if to == JobDone {
		attrs = append(attrs, "resultBytes", len(o.result))
	}
	j.log.Log(context.Background(), level, msg, attrs...)
	j.events.publish(fleet.Event{Type: "job", Status: string(to), Err: errMsg, Spans: hasSpans})
	j.events.close()
	return true
}

// durMS renders a duration as fractional milliseconds for log fields.
func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// captureSpans finalizes a job's distributed trace: ends the job span,
// applies tail sampling, renders the trace-event artifact, and stores it
// on the job. Returns true when an artifact is now being served at
// GET /v1/jobs/{id}/spans. Safe to call on untraced jobs.
func (s *Server) captureSpans(j *job, status JobState, elapsed time.Duration) bool {
	if j.tr == nil || j.span == nil {
		return false
	}
	j.span.SetAttr("status", string(status))
	j.span.End()
	j.span = nil
	if !s.keepTrace(j.id, elapsed) {
		return false
	}
	var buf bytes.Buffer
	if err := trace.WritePerfetto(&buf, j.tr.ID(), j.tr.Records()); err != nil {
		j.log.Warn("span trace render failed", "error", err)
		return false
	}
	s.mu.Lock()
	j.spans = buf.Bytes()
	s.mu.Unlock()
	if dropped := j.tr.Dropped(); dropped > 0 {
		j.log.Warn("span trace truncated", "droppedSpans", dropped)
	}
	j.log.Info("span trace captured",
		"traceId", j.tr.ID(), "spanBytes", buf.Len())
	return true
}

// keepTrace is the tail-sampling policy: every trace when TraceTail is
// unset, always-keep for jobs slower than TraceTail, and a deterministic
// 1-in-TraceSample of the fast ones (keyed on the job's content hash, so
// re-runs of a spec sample consistently).
func (s *Server) keepTrace(id string, elapsed time.Duration) bool {
	if s.cfg.TraceTail <= 0 || elapsed >= s.cfg.TraceTail {
		return true
	}
	n := s.cfg.TraceSample
	if n <= 0 {
		return false
	}
	var h uint32
	for i := 0; i < len(id); i++ {
		h = h*31 + uint32(id[i])
	}
	return h%uint32(n) == 0
}
