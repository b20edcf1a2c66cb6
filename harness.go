package equinox

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"equinox/internal/core"
	"equinox/internal/flight"
	"equinox/internal/obs"
	"equinox/internal/obs/trace"
	"equinox/internal/sim"
	"equinox/internal/stats"
	"equinox/internal/telemetry"
	"equinox/internal/workloads"
)

// EvalConfig configures a full §6 evaluation sweep.
type EvalConfig struct {
	Width, Height, NumCBs int

	Schemes    []sim.SchemeKind // nil = all seven
	Benchmarks []string         // nil = the full 29-benchmark suite

	InstructionsPerPE int // zero = default scale
	Seed              int64
	Parallelism       int // concurrent (scheme, benchmark) runs; zero = GOMAXPROCS

	// Design is the EquiNox design to evaluate; nil builds one with the
	// fast greedy search.
	Design *core.Design

	// Flight attaches the cycle-accurate flight recorder (internal/flight) to
	// the sweep's first run — first scheme × first benchmark — and collects
	// its capture in Evaluation.Flights. It is not part of the serialized
	// configuration.
	Flight bool `json:"-"`

	// Telemetry attaches the windowed telemetry time-series to every run of
	// the sweep; summaries collect in Evaluation.Telemetry and export as the
	// evaluation document's "telemetry" field. Purely observational: every
	// Result is bit-identical to an uninstrumented run. It is execution
	// advice, not sweep identity.
	Telemetry bool
}

// DefaultEvalConfig returns the paper's main 8×8 sweep.
func DefaultEvalConfig() EvalConfig {
	return EvalConfig{Width: 8, Height: 8, NumCBs: 8, Seed: 1}
}

// Evaluation holds the sweep's per-(scheme, benchmark) results.
type Evaluation struct {
	Config  EvalConfig
	Design  *core.Design
	Schemes []sim.SchemeKind
	Benches []string
	// Results[scheme][benchmark].
	Results map[sim.SchemeKind]map[string]sim.Result
	// Errors collects failed runs (timeouts) without aborting the sweep.
	Errors []error
	// Phases aggregates the sweep's placement, MCTS search and simulation
	// spans. Under parallelism the summed durations can exceed wall-clock
	// time.
	Phases []obs.Phase
	// Flights holds the flight-recorder captures of traced runs (at most one
	// per sweep today). A capture is kept even when its run failed — a
	// watchdog diagnostic is when the events matter.
	Flights []*flight.Capture
	// Telemetry holds the per-run windowed telemetry summaries of a
	// Telemetry-flagged sweep (one per run, kept even for failed runs —
	// a timeout's window series is its best diagnostic).
	Telemetry []telemetry.RunSummary
}

// localTracer mints the trace a sweep records its phases in when its
// context carries no span.
var localTracer = trace.NewTracer("local")

// RunEvaluationContext executes the sweep, parallelizing independent
// simulations, and is the one way to run a simulation: a single run is a
// one-scheme, one-benchmark sweep read back with Result. When ctx is
// cancelled, in-flight simulations stop at their next cancellation check,
// queued runs are abandoned, and the partial evaluation is returned
// alongside ctx.Err(). Failed runs (timeouts, bad configs) are recorded in
// Evaluation.Errors and their entries left absent, so summary geomeans are
// computed over the runs that succeeded rather than polluted by zeros.
func RunEvaluationContext(ctx context.Context, cfg EvalConfig) (*Evaluation, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Every span of the sweep hangs under one root: a child of the caller's
	// span, or the root of a local trace. Phases aggregate that subtree, so
	// spans the caller's trace holds already never count.
	root := trace.StartChild(ctx, "evaluation")
	if root == nil {
		root = localTracer.New().Start("", "evaluation")
	}
	defer root.End()
	ctx = trace.WithSpan(ctx, root)
	schemes := cfg.Schemes
	benches := cfg.Benchmarks
	design := cfg.Design
	if design == nil && slices.Contains(schemes, sim.EquiNox) {
		dsp := trace.StartChild(ctx, "design")
		var err error
		design, err = designForMesh(trace.WithSpan(ctx, dsp), cfg.Width, cfg.Height, cfg.NumCBs)
		dsp.End()
		if err != nil {
			return nil, err
		}
	}

	ev := &Evaluation{
		Config:  cfg,
		Design:  design,
		Schemes: schemes,
		Benches: benches,
		Results: map[sim.SchemeKind]map[string]sim.Result{},
	}
	for _, s := range schemes {
		ev.Results[s] = map[string]sim.Result{}
	}

	type job struct {
		scheme sim.SchemeKind
		bench  string
	}
	var jobs []job
	for _, s := range schemes {
		for _, b := range benches {
			jobs = append(jobs, job{s, b})
		}
	}
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	sem := make(chan struct{}, par)
dispatch:
	for _, j := range jobs {
		select {
		case <-ctx.Done():
			break dispatch
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rsp := trace.StartChild(ctx, fmt.Sprintf("run %v/%s", j.scheme, j.bench))
			rsp.SetAttr("scheme", fmt.Sprintf("%v", j.scheme))
			rsp.SetAttr("benchmark", j.bench)
			runCtx := trace.WithSpan(ctx, rsp)
			traced := cfg.Flight && j.scheme == schemes[0] && j.bench == benches[0]
			res, capture, telCap, err := runInstrumented(runCtx, cfg, design, j.scheme, j.bench, traced)
			if err != nil {
				rsp.SetAttr("error", err.Error())
			}
			rsp.End()
			mu.Lock()
			defer mu.Unlock()
			if capture != nil {
				ev.Flights = append(ev.Flights, capture)
			}
			if telCap != nil {
				ev.Telemetry = append(ev.Telemetry, telCap.Summary())
			}
			switch {
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				// Cancellation is reported once via the returned error, not
				// per run.
			case err != nil:
				ev.Errors = append(ev.Errors, fmt.Errorf("%v/%s: %w", j.scheme, j.bench, err))
			default:
				ev.Results[j.scheme][j.bench] = res
			}
		}()
	}
	wg.Wait()
	sort.Slice(ev.Errors, func(i, k int) bool { return ev.Errors[i].Error() < ev.Errors[k].Error() })
	ev.Phases = obs.PhasesUnder(root.Trace().Records(), root.ID(), "placement", "mcts", "sim")
	return ev, ctx.Err()
}

// runInstrumented simulates one (scheme, benchmark) cell of the normalized
// sweep cfg, with the flight recorder attached when traced and the telemetry
// series when cfg.Telemetry, both at their default options. Both are purely
// observational — the Result is bit-identical to an uninstrumented run — and
// the captures are returned even when the run fails: a starvation-watchdog
// diagnostic or a timeout is exactly when the recorded events and windows
// matter most.
func runInstrumented(ctx context.Context, cfg EvalConfig, design *core.Design, scheme sim.SchemeKind, bench string, traced bool) (sim.Result, *flight.Capture, *telemetry.Capture, error) {
	prof, err := workloads.ByName(bench)
	if err != nil {
		return sim.Result{}, nil, nil, err
	}
	sc := sim.DefaultConfig(scheme)
	sc.Width, sc.Height, sc.NumCBs = cfg.Width, cfg.Height, cfg.NumCBs
	if cfg.InstructionsPerPE > 0 {
		sc.InstructionsPerPE = cfg.InstructionsPerPE
	}
	if cfg.Seed != 0 {
		sc.Seed = cfg.Seed
	}
	if scheme == sim.EquiNox {
		sc.CBOverride, sc.EIRGroups = design.CBs, design.Groups
	}
	sys, err := sim.NewSystem(sc, prof)
	if err != nil {
		return sim.Result{}, nil, nil, err
	}
	var fc *flight.Capture
	var tc *telemetry.Capture
	if traced {
		fc = sys.AttachFlight(flight.Options{})
	}
	if cfg.Telemetry {
		tc = sys.AttachTelemetry(telemetry.Options{})
	}
	res, err := sys.RunToCompletionContext(ctx)
	return res, fc, tc, err
}

// metric extracts one scalar per run.
type metric func(sim.Result) float64

// Result returns the measurement for one (scheme, benchmark) cell and
// whether the run completed — failed runs leave their cell absent.
func (ev *Evaluation) Result(s sim.SchemeKind, b string) (sim.Result, bool) {
	r, ok := ev.Results[s][b]
	return r, ok
}

// normalizedPerBenchmark returns values[scheme][benchIdx] = m(scheme,bench)
// normalized to the base scheme on the same benchmark. Benchmarks where
// either the scheme's or the base's run is missing (failed) are NaN; the
// aggregation and rendering layers skip them.
func (ev *Evaluation) normalizedPerBenchmark(m metric, base sim.SchemeKind) map[sim.SchemeKind][]float64 {
	out := map[sim.SchemeKind][]float64{}
	for _, s := range ev.Schemes {
		vals := make([]float64, len(ev.Benches))
		for i, b := range ev.Benches {
			br, bok := ev.Result(base, b)
			sr, sok := ev.Result(s, b)
			if !bok || !sok {
				vals[i] = math.NaN()
				continue
			}
			if bv := m(br); bv != 0 {
				vals[i] = m(sr) / bv
			}
		}
		out[s] = vals
	}
	return out
}

// GeoMeanNormalized returns the geometric-mean of a metric across the suite,
// normalized to the base scheme (the "AVG" bar of Figure 9). Benchmarks
// whose runs failed are excluded from the mean.
func (ev *Evaluation) GeoMeanNormalized(m metric, base sim.SchemeKind) map[sim.SchemeKind]float64 {
	per := ev.normalizedPerBenchmark(m, base)
	out := map[sim.SchemeKind]float64{}
	for s, vals := range per {
		var present []float64
		for _, v := range vals {
			if !math.IsNaN(v) {
				present = append(present, v)
			}
		}
		out[s] = stats.GeoMean(present)
	}
	return out
}

// Standard metrics for the figures.
func execTime(r sim.Result) float64 { return r.ExecNS }
func energy(r sim.Result) float64   { return r.Energy.TotalPJ() }
func edp(r sim.Result) float64      { return r.EDP() }
func latency(r sim.Result) float64  { return r.TotalLatencyNS() }
func area(r sim.Result) float64     { return r.AreaMM2 }
func ipc(r sim.Result) float64      { return r.IPC }

// ExecTimeSummary returns the Figure 9(a) averages normalized to base.
func (ev *Evaluation) ExecTimeSummary(base sim.SchemeKind) map[sim.SchemeKind]float64 {
	return ev.GeoMeanNormalized(execTime, base)
}

// EnergySummary returns the Figure 9(b) averages normalized to base.
func (ev *Evaluation) EnergySummary(base sim.SchemeKind) map[sim.SchemeKind]float64 {
	return ev.GeoMeanNormalized(energy, base)
}

// EDPSummary returns the Figure 9(c) averages normalized to base.
func (ev *Evaluation) EDPSummary(base sim.SchemeKind) map[sim.SchemeKind]float64 {
	return ev.GeoMeanNormalized(edp, base)
}

// LatencySummary returns the Figure 10 total-latency averages normalized to
// base.
func (ev *Evaluation) LatencySummary(base sim.SchemeKind) map[sim.SchemeKind]float64 {
	return ev.GeoMeanNormalized(latency, base)
}

// AreaSummary returns the Figure 11 mean NoC area per scheme in mm².
// Failed runs are excluded.
func (ev *Evaluation) AreaSummary() map[sim.SchemeKind]float64 {
	out := map[sim.SchemeKind]float64{}
	for _, s := range ev.Schemes {
		var vals []float64
		for _, b := range ev.Benches {
			if r, ok := ev.Result(s, b); ok {
				vals = append(vals, area(r))
			}
		}
		out[s] = stats.Mean(vals)
	}
	return out
}

// IPCSummary returns mean IPC per scheme (Figure 12's quantity). Failed
// runs are excluded.
func (ev *Evaluation) IPCSummary() map[sim.SchemeKind]float64 {
	out := map[sim.SchemeKind]float64{}
	for _, s := range ev.Schemes {
		var vals []float64
		for _, b := range ev.Benches {
			if r, ok := ev.Result(s, b); ok {
				vals = append(vals, ipc(r))
			}
		}
		out[s] = stats.Mean(vals)
	}
	return out
}

// ReplyBitShare returns the suite-mean reply share of NoC bits (§2.2).
// Failed runs are excluded.
func (ev *Evaluation) ReplyBitShare(s sim.SchemeKind) float64 {
	var vals []float64
	for _, b := range ev.Benches {
		if r, ok := ev.Result(s, b); ok {
			vals = append(vals, r.ReplyBitShare)
		}
	}
	return stats.Mean(vals)
}

// latencyParts returns the Figure 10 four-part breakdown for a scheme,
// averaged over the suite, normalized by the base scheme's mean total.
// Benchmarks missing either the scheme's or the base's run are excluded.
func (ev *Evaluation) latencyParts(s, base sim.SchemeKind) (reqQ, reqN, repQ, repN float64) {
	var t float64
	var n float64
	for _, b := range ev.Benches {
		r, ok := ev.Result(s, b)
		br, bok := ev.Result(base, b)
		if !ok || !bok {
			continue
		}
		reqQ += r.ReqQueueNS
		reqN += r.ReqNetNS
		repQ += r.RepQueueNS
		repN += r.RepNetNS
		t += br.TotalLatencyNS()
		n++
	}
	if n == 0 {
		return
	}
	t /= n
	if t == 0 {
		return
	}
	return reqQ / n / t, reqN / n / t, repQ / n / t, repN / n / t
}
