package service

import (
	"encoding/json"
	"net/http"
	"strconv"

	"equinox/internal/fleet"
	"equinox/internal/obs"
)

// Admission control and journal recovery: the two halves of graceful
// degradation. Under load the server sheds batch work early (429 with a
// Retry-After hint) so interactive submissions keep landing until the
// coordinator's unit queue is truly full; after a crash it replays the
// journal so accepted work survives the process.

// defaultShedFraction is the queue fill fraction past which batch
// submissions are shed while interactive ones are still admitted.
const defaultShedFraction = 0.75

// admitLocked decides whether a fresh submission may enter the unit
// queue; the caller holds s.mu. Interactive jobs are admitted until their
// units no longer fit (which SubmitJob reports); batch jobs are shed once
// the queue passes ShedFraction of its depth, reserving the headroom for
// humans. Returns the Retry-After hint to send when ok is false.
func (s *Server) admitLocked(class fleet.Class) (retryAfter int, ok bool) {
	if class != fleet.Batch {
		return 0, true
	}
	shed := s.cfg.ShedFraction
	if shed <= 0 {
		shed = defaultShedFraction
	}
	limit := max(int(shed*float64(s.coord.QueueCap())), 1)
	if s.queuedUnits() >= limit {
		return s.retryAfterSeconds(), false
	}
	return 0, true
}

// queuedUnits counts the units waiting in the coordinator's queue.
func (s *Server) queuedUnits() int {
	interactive, batch := s.coord.QueueDepth()
	return interactive + batch
}

// retryAfterSeconds estimates how long a rejected client should wait
// before resubmitting: proportional to the backlog, clamped to [1, 120]
// so a deep queue never tells clients to disappear for hours.
func (s *Server) retryAfterSeconds() int {
	sec := 1 + s.queuedUnits()/2
	if sec > 120 {
		sec = 120
	}
	return sec
}

// rejectSubmission sends the 429 and counts the shed by class.
func (s *Server) rejectSubmission(w http.ResponseWriter, class fleet.Class, retryAfter int) {
	s.met.admissionRejected.With(class.String()).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	obs.WriteError(w, http.StatusTooManyRequests, "unit queue is saturated; retry after the indicated backoff")
	s.log.Warn("submission shed", "class", class.String(), "retryAfterSec", retryAfter)
}

// recoverJournal re-queues every job the journal recorded as submitted
// but never terminal, through dispatch like any submission. The re-run
// converges to the identical bytes: the simulation is deterministic, and
// the store answers every unit the crashed run (or a peer sharing the
// store) completed.
func (s *Server) recoverJournal() {
	for _, p := range s.cfg.Journal.Pending() {
		var spec JobSpec
		err := json.Unmarshal(p.Spec, &spec)
		var canon JobSpec
		if err == nil {
			canon, err = spec.Canonicalize()
		}
		var key string
		if err == nil {
			key, err = keyOf(canon)
		}
		if err != nil {
			s.log.Warn("journal: dropping unrecoverable job", "jobId", p.ID, "error", err.Error())
			s.cfg.Journal.Terminal(p.ID, JobFailed)
			continue
		}
		if key != p.ID {
			// A canonicalization change since the journal was written; the
			// recorded id no longer names this spec, so re-running it would
			// strand the result under a different key.
			s.log.Warn("journal: recorded spec no longer hashes to its job id; dropping",
				"jobId", p.ID, "rehashed", key)
			s.cfg.Journal.Terminal(p.ID, JobFailed)
			continue
		}
		s.mu.Lock()
		j := s.newJobLocked(key, canon, "journal-recovery")
		if _, qerr := s.dispatch(j, true); qerr != nil {
			// Still pending in the journal; the next restart retries it.
			s.log.Warn("journal: recovered job deferred, queue full", "jobId", key)
		}
	}
}
