package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"equinox"
	"equinox/internal/fleet"
	"equinox/internal/telemetry"
)

// unitsFor derives a job's work units: one canonical 1×1 (scheme,
// benchmark) JobSpec per run, exactly what a direct single-run submission
// canonicalizes to, so its content key is shared with every sweep that
// includes the run (a one-unit job's unit key is the job's own). Only the
// first unit of a traced job keeps Trace, as the harness traces a sweep's
// first run, and it reruns even when stored: its artifact needs the run.
func unitsFor(jobID string, canon JobSpec) ([]fleet.Unit, error) {
	units := make([]fleet.Unit, 0, canon.Runs())
	for _, scheme := range canon.Schemes {
		for _, bench := range canon.Benchmarks {
			us := canon
			us.Priority = "" // scheduling advice, not identity
			us.Schemes = []string{scheme}
			us.Benchmarks = []string{bench}
			us.Trace = canon.Trace && len(units) == 0
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
				Rerun:     us.Trace,
			})
		}
	}
	return units, nil
}

// unitEvent is the one source of a job's progress: it starts the job on
// its first lease or cache hit, keeps a traced unit's flight artifact,
// counts finished units, journals unit grants and completions, and relays
// the event to SSE subscribers.
func (s *Server) unitEvent(j *job, ev fleet.Event) {
	if ev.Type == "telemetry" {
		// Not a lifecycle event: no progress or journal update.
		var sums []telemetry.RunSummary
		if err := json.Unmarshal(ev.Telemetry, &sums); err == nil {
			for _, sum := range sums {
				s.met.observeTelemetry(sum)
			}
		}
		j.events.publish(ev)
		return
	}
	if ev.Type == "cache" || ev.Status == "leased" {
		s.start(j)
	}
	if len(ev.Flight) > 0 {
		s.captureFlight(j, ev)
	}
	j.doneRuns.Store(int64(ev.Done))
	s.cfg.Journal.Unit(j.id, ev.UnitKey, ev.Status) // no-op without a journal
	j.events.publish(ev)
}

// RunSpec executes a job-spec JSON document and returns its evaluation
// document (the same bytes Evaluation.WriteJSON produces). Every fleet
// worker, in process or remote, runs units through it: a unit's Spec is a
// canonical single-run JobSpec. parallelism bounds concurrent runs (zero
// = GOMAXPROCS). A Trace-flagged spec's document opens with a "flight"
// member (flightMember), which fleet.Worker lifts into its completion.
// A spec or design that cannot be built is a fleet.Permanent error: every
// attempt would fail alike (a failed run is an entry in the document).
func RunSpec(ctx context.Context, raw []byte, parallelism int) ([]byte, error) {
	var spec JobSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fleet.Permanent(fmt.Errorf("service: bad job spec: %w", err))
	}
	canon, err := spec.Canonicalize()
	if err != nil {
		return nil, fleet.Permanent(err)
	}
	cfg, err := canon.evalConfig()
	if err != nil {
		return nil, fleet.Permanent(err)
	}
	cfg.Parallelism = parallelism
	ev, err := equinox.RunEvaluationContext(ctx, cfg)
	if err != nil {
		if ctx.Err() == nil {
			err = fleet.Permanent(err)
		}
		return nil, err
	}
	var doc bytes.Buffer
	if err := ev.WriteJSON(&doc); err != nil {
		return nil, err
	}
	if !canon.Trace || len(ev.Flights) == 0 {
		return doc.Bytes(), nil
	}
	c := ev.Flights[0]
	var perfetto bytes.Buffer
	if err := c.WritePerfetto(&perfetto); err != nil {
		return nil, err
	}
	member, err := json.Marshal(flightMember{c.StarvationFires(), c.TailExceeded(), perfetto.Bytes()})
	if err != nil {
		return nil, err
	}
	out := append([]byte(fleet.FlightPrefix), member...)
	out = append(out, ',')
	return append(out, doc.Bytes()[1:]...), nil // the document without its opening brace
}

// flightMember is the "flight" member of a traced spec's document: the
// flight recorder's anomaly counters and its Perfetto trace, the job's
// artifact at GET /v1/jobs/{id}/trace.
type flightMember struct {
	StarvationFires int64           `json:"starvationFires"`
	TailLatencyHits int64           `json:"tailLatencyHits"`
	Perfetto        json.RawMessage `json:"perfetto"`
}
