package sim

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"equinox/internal/telemetry"
	"equinox/internal/workloads"
)

// sweepOpts are the windowing parameters the telemetry tests share: windows
// short enough to resolve warmup dynamics in small test runs.
func sweepOpts() telemetry.Options {
	return telemetry.Options{SampleEvery: 16, WindowCycles: 256, MaxWindows: 512}
}

// TestTelemetryMatchesSerial pins the tentpole invariant: attaching
// telemetry is purely observational. For SingleBase and EquiNox, the Result
// of a telemetry-attached run must be bit-identical to a plain run, and the
// telemetry windows themselves must be identical from one attached run to
// the next.
func TestTelemetryMatchesSerial(t *testing.T) {
	for _, s := range []SchemeKind{SingleBase, EquiNox} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig(s, t)
			prof, err := workloads.ByName("hotspot")
			if err != nil {
				t.Fatal(err)
			}
			want, err := Run(cfg, prof)
			if err != nil {
				t.Fatal(err)
			}
			var firstSum telemetry.RunSummary
			for run := 0; run < 2; run++ {
				sys, err := NewSystem(cfg, prof)
				if err != nil {
					t.Fatal(err)
				}
				cap := sys.AttachTelemetry(sweepOpts())
				got, err := sys.RunToCompletion()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("run %d: telemetry-attached Result diverged:\n got %+v\nwant %+v", run, got, want)
				}
				sum := cap.Summary()
				if len(sum.Networks) == 0 || len(sum.Networks[0].Windows) == 0 {
					t.Fatalf("run %d: no telemetry windows collected", run)
				}
				if run == 0 {
					firstSum = sum
				} else if !reflect.DeepEqual(sum, firstSum) {
					t.Errorf("run %d: telemetry windows diverged from the first run", run)
				}
			}
		})
	}
}

// loadPoint is a synthetic injection-rate control: a uniform-random traffic
// profile whose memory intensity sets the offered load. Low points leave
// the network far below saturation; high points drive the CB ejection
// bottleneck past the latency knee.
func loadPoint(memRatio, burstiness float64, gap int) workloads.Profile {
	return workloads.Profile{
		Name:           fmt.Sprintf("load%.2f", memRatio),
		MemRatio:       memRatio,
		ReadFrac:       0.9,
		FootprintLines: 32000,
		SharedFrac:     0.9,
		SeqProb:        0,
		StrideLines:    1,
		Burstiness:     burstiness,
		ComputeGap:     gap,
		Instructions:   600,
		DependentFrac:  0,
	}
}

// TestSaturationSweep is the injection-rate sweep demo: stepping offered
// load from well below to well past the knee must leave the lightest point
// unsaturated and latch the saturation detector at the heaviest, for both a
// single-network baseline and EquiNox. The per-window series of every
// point is exported as CSV (TELEMETRY_SWEEP_CSV overrides the destination;
// `make saturation-sweep` uses it).
func TestSaturationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is a multi-run demo; skipped in -short")
	}
	points := []workloads.Profile{
		loadPoint(0.01, 0.0, 30), // near zero-load: p50 stays at the cold-start floor
		loadPoint(0.10, 0.2, 8),
		loadPoint(0.50, 0.6, 1),
		loadPoint(0.95, 0.9, 0), // well past the knee
	}
	var sums []telemetry.RunSummary
	for _, s := range []SchemeKind{SingleBase, EquiNox} {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			saturated := make([]bool, len(points))
			for i, prof := range points {
				cfg := smallConfig(s, t)
				cfg.InstructionsPerPE = prof.Instructions
				sys, err := NewSystem(cfg, prof)
				if err != nil {
					t.Fatal(err)
				}
				cap := sys.AttachTelemetry(sweepOpts())
				if _, err := sys.RunToCompletion(); err != nil {
					t.Fatal(err)
				}
				sum := cap.Summary()
				saturated[i], _ = cap.Saturated()
				sums = append(sums, sum)
				t.Logf("%s load=%s saturated=%v", s, prof.Name, saturated[i])
			}
			if saturated[0] {
				t.Errorf("%s: lightest load point flagged saturated", s)
			}
			if !saturated[len(points)-1] {
				t.Errorf("%s: heaviest load point not flagged saturated", s)
			}
		})
	}

	out := os.Getenv("TELEMETRY_SWEEP_CSV")
	if out == "" {
		out = filepath.Join(t.TempDir(), "saturation_sweep.csv")
	}
	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := telemetry.WriteCSV(f, sums); err != nil {
		t.Fatal(err)
	}
	if st, err := f.Stat(); err != nil || st.Size() == 0 {
		t.Fatalf("empty sweep CSV (err=%v)", err)
	}
	t.Logf("per-window sweep CSV: %s", out)
}
