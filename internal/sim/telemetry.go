package sim

import "equinox/internal/telemetry"

// AttachTelemetry attaches a windowed telemetry time-series (with its
// steady-state and saturation detectors) to each of the system's networks,
// in Networks order, and returns the run's capture. Call before the first
// Step.
//
// Attachment is observational only: Results are bit-identical with or
// without telemetry (pinned by TestTelemetryMatchesSerial), and the
// per-cycle sampling path is allocation-free (pinned by noc's
// TestStepDoesNotAllocate).
func (s *System) AttachTelemetry(opts telemetry.Options) *telemetry.Capture {
	cap := &telemetry.Capture{
		Scheme:    s.cfg.Scheme.String(),
		Benchmark: s.prof.Name,
	}
	for _, n := range s.nets {
		cap.Series = append(cap.Series, n.AttachTelemetry(opts))
	}
	return cap
}
