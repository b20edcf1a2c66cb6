package service

import (
	"encoding/json"

	"equinox/internal/fleet"
	"equinox/internal/telemetry"
)

// unitsFor derives a sharded job's work units: one canonical 1×1
// (scheme, benchmark) JobSpec per run. Each unit spec is exactly what a
// direct single-run submission would canonicalize to, so its content key
// — the unit's identity in the result store — is shared with any other
// sweep (or standalone job) that includes the same run.
func unitsFor(jobID string, canon JobSpec) ([]fleet.Unit, error) {
	units := make([]fleet.Unit, 0, canon.Runs())
	for _, scheme := range canon.Schemes {
		for _, bench := range canon.Benchmarks {
			us := canon
			us.Priority = "" // scheduling advice, not identity
			us.Schemes = []string{scheme}
			us.Benchmarks = []string{bench}
			key, err := keyOf(us)
			if err != nil {
				return nil, err
			}
			raw, err := json.Marshal(us)
			if err != nil {
				return nil, err
			}
			units = append(units, fleet.Unit{
				JobID:     jobID,
				Key:       key,
				Scheme:    scheme,
				Benchmark: bench,
				Spec:      raw,
			})
		}
	}
	return units, nil
}

// submitSharded derives the job's units and hands them to the fleet
// coordinator. Called without s.mu held (the coordinator may fire callbacks
// synchronously for store-cached units). An error means nothing was
// enqueued and the caller should fall back to local execution.
func (s *Server) submitSharded(j *job) error {
	units, err := unitsFor(j.id, j.spec)
	if err != nil {
		return err
	}
	cb := fleet.JobCallbacks{
		OnEvent: func(ev fleet.Event) {
			if ev.Type == "telemetry" {
				// A unit's windowed summary: feed the saturation/warmup
				// gauges and relay the frame to SSE subscribers. Not a
				// lifecycle event — no progress or journal update.
				var sums []telemetry.RunSummary
				if err := json.Unmarshal(ev.Telemetry, &sums); err == nil {
					for _, sum := range sums {
						s.met.observeTelemetry(sum)
					}
				}
				j.events.publish(ev)
				return
			}
			j.doneRuns.Store(int64(ev.Done))
			if s.cfg.Journal != nil && (ev.Type == "unit" || ev.Type == "cache") {
				s.cfg.Journal.Unit(j.id, ev.UnitKey, ev.Status)
			}
			j.events.publish(ev)
		},
		// The assembled canonical evaluation document, or an assembly
		// failure.
		OnDone: func(result []byte, err error) {
			if err != nil {
				s.settle(j, JobFailed, outcome{err: err})
				return
			}
			s.settle(j, JobDone, outcome{result: result, logAttrs: []any{"sharded", true}})
		},
		Trace:  j.tr,
		Parent: j.span.ID(),
	}
	return s.coord.SubmitJob(j.id, j.spec.class(), units, cb)
}
