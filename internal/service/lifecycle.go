package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"slices"
	"time"

	"equinox/internal/fleet"
	"equinox/internal/obs/trace"
)

// edges is the job state machine, state → legal successors. This file owns
// it: step is the only assignment to a job's state, dispatch the one way in
// (every job becomes fleet units), start the one way a job begins, and
// settle — driven by the coordinator's OnDone, a DELETE or Shutdown — the
// one way it ends.
//
//	queued  → running    start: its first unit was leased or answered from the store
//	queued  → cancelled  DELETE or the shutdown deadline before any unit started, or
//	                     dispatch when the unit queue refuses the job (uncounted)
//	running → done       OnDone with the job's document
//	running → failed     OnDone with an error: assembly failed, or a one-unit job's unit failed
//	running → cancelled  DELETE, or the shutdown deadline cutting the job short
//
// Terminal states have no successors, which makes every ending exactly-once:
// the second of two racing endings finds no edge.
var edges = map[JobState][]JobState{
	JobQueued:  {JobRunning, JobCancelled},
	JobRunning: {JobDone, JobFailed, JobCancelled},
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

// dispatch is the one way in: it hands a freshly registered job's units to
// the coordinator. The caller registered j under s.mu and still holds it;
// dispatch releases it. Returns the job's state once the coordinator took
// it (running if an idle executor or the store already started it), or —
// the unit queue refused it — unregisters the uncounted job and returns
// the error.
func (s *Server) dispatch(j *job, recovered bool) (JobState, error) {
	// The submit record lands before any unit can run (and finish) the
	// job, so it always precedes the terminal record. A recovered job's is
	// in the journal already.
	if s.cfg.Journal != nil && !recovered {
		if raw, err := json.Marshal(j.spec); err != nil {
			s.log.Warn("journal: spec marshal failed", "jobId", j.id, "error", err.Error())
		} else {
			s.cfg.Journal.Submit(j.id, raw)
		}
	}
	s.mu.Unlock()
	msg := "job submitted"
	if recovered {
		msg = "job recovered from journal"
	}
	// Logged before the hand-off, which may already start the job.
	j.log.Info(msg, "state", JobQueued, "cache", "miss", "runs", j.totalRuns, "priority", j.spec.Priority)
	units, err := unitsFor(j.id, j.spec)
	if err == nil {
		// The coordinator fires callbacks synchronously for units the
		// store answers and for units it hands to idle executors.
		err = s.coord.SubmitJob(j.id, j.spec.class(), units, fleet.JobCallbacks{
			OnEvent: func(ev fleet.Event) { s.unitEvent(j, ev) },
			OnDone: func(result []byte, err error) {
				if err != nil {
					s.settle(j, JobFailed, outcome{err: err})
					return
				}
				s.settle(j, JobDone, outcome{result: result})
			},
			Trace:  j.tr,
			Parent: j.span.ID(),
		})
	}
	s.mu.Lock()
	state := j.state
	// The refusal ends the job unless a shutdown deadline already has.
	refused := err != nil && j.step(JobCancelled)
	if refused {
		delete(s.jobs, j.id)
	}
	s.mu.Unlock()
	if err == nil && state == JobCancelled {
		// A DELETE or the shutdown deadline settled the job before its units
		// were registered, so its CancelJob found none: withdraw them now.
		s.coord.CancelJob(j.id)
	}
	if err != nil {
		if refused {
			j.events.close()
			s.live.Done()
		}
		if !recovered {
			// Close the submit record out, or a restart would resurrect a
			// job the client saw rejected. (A recovered job stays pending
			// instead: the next restart retries it.)
			s.cfg.Journal.Terminal(j.id, JobCancelled)
		}
		return "", err
	}
	s.met.jobsSubmitted.Add(1)
	if recovered {
		s.met.jobsRecovered.Add(1)
	} else {
		s.met.cacheMisses.Add(1)
	}
	return state, nil
}

// start moves a queued job to running when its first unit is leased or
// answered from the store; later units find it running already.
func (s *Server) start(j *job) {
	s.mu.Lock()
	if !j.step(JobRunning) {
		s.mu.Unlock()
		return
	}
	j.started = time.Now()
	wait := j.started.Sub(j.submitted)
	s.mu.Unlock()
	s.met.queueWait.Observe(wait.Seconds())
	j.log.Info("job started", "state", JobRunning, "queueWaitMs", durMS(wait))
}

// outcome is what a terminal edge carries besides its target state. The
// zero value is the common case; the fields are the only places where the
// endings legitimately differ.
type outcome struct {
	err    error  // failed: the job's error, also sent on the terminal frame
	result []byte // done: the evaluation document (see settle)

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
// runs the terminal sequence — state and finish time, counter, journal
// record, span artifact, log line, terminal SSE frame, hub close — exactly
// once, in that order. It returns false, having
// changed nothing, when the edge table has no such edge: the job already
// ended (a DELETE raced with completion, or the other way round). The
// coordinator stored the done job's document under its id beforehand.
func (s *Server) settle(j *job, to JobState, o outcome) bool {
	now := time.Now()
	var tel []byte
	if to == JobDone && j.spec.Telemetry {
		// The document carries every run's telemetry block (units answered
		// from telemetry-less cache entries contribute none).
		tel = fleet.ExtractTelemetry(o.result)
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
		j.telemetry = tel
	}
	s.mu.Unlock()
	s.live.Done()

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
