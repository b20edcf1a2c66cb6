// Command bench is the repository's benchmark: six closed-loop workloads
// over the simulator, the evaluation harness, the §4 design flow and the job
// server, three end-to-end metrics on each, and — in a traced run — a
// per-layer ladder measured from outside through each package's exported
// API. BENCHMARK.json at the repository root names every workload and
// metric; README.md in this directory says why each was chosen and which
// layer metric should move which end-to-end metric.
//
// Run it through run.sh, which builds it:
//
//	bash bench/run.sh --workload sim-saturated --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --seed 1                  # every workload, untraced
//	bash bench/run.sh --seed 1 --trace 1        # every workload, traced + ladder
//	bash bench/run.sh --compare a.json b.json -- c.json d.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// workloads is the benchmark's workload table. Names, order and reasons
// match BENCHMARK.json (schema_test.go holds them together).
var workloadTable = []workload{
	{
		name: "sim-saturated", op: "NewSystem+RunToCompletion of one scheme", unit: "simulated instructions", rateByKind: true,
		why:   "all seven schemes on reply-bound kmeans, one run per core at a time: routers busy, VC/switch allocation dominates host time",
		setup: func(e env) (instance, error) { return setupSim(e, "kmeans", e.pick(200, 60)) },
	},
	{
		name: "sim-lightload", op: "NewSystem+RunToCompletion of one scheme", unit: "simulated instructions", rateByKind: true,
		why:   "all seven schemes on compute-bound myocyte, one run per core: the same noc layer with mostly idle VCs, so per-cycle fixed cost shows",
		setup: func(e env) (instance, error) { return setupSim(e, "myocyte", e.pick(1500, 400)) },
	},
	{
		name: "eval-sweep", op: "RunEvaluation+WriteJSON+figures", unit: "(scheme, benchmark) runs",
		why:   "7 schemes x 4 benchmarks through RunEvaluation on every core, then export: construction, run scheduling and JSON matter",
		setup: setupSweep,
	},
	{
		name: "design-search", op: "core.BuildDesign with MCTS", unit: "designs",
		why:   "the paper's N-Queen + MCTS design flow at 8x8, one search per core: no noc/gpu/hbm work, the bypass workload for simulator changes",
		setup: setupDesign,
	},
	{
		name: "service-cold", op: "submit to result of an unseen job", unit: "jobs",
		why:   "2 closed-loop HTTP clients submit unseen single-run jobs: simulation plus queueing, journal fsync and store writes",
		setup: func(e env) (instance, error) { return setupService(e, false) },
	},
	{
		name: "service-warm", op: "submit to result of a cached job", unit: "jobs",
		traceEvery: 16, // ~10^4 jobs a second: a span set for every second one would be a 30 MB trace
		why:        "2 clients resubmit cached jobs: HTTP, canonical hashing and store reads only, no simulator code runs",
		setup:      func(e env) (instance, error) { return setupService(e, true) },
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a run prints, and one entry of result.json.
type runResult struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed,omitempty"`
	Trace     bool                   `json:"trace,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// header records where and how a result file was produced.
type header struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"goVersion"`
	Revision   string  `json:"vcsRevision"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Quick      bool    `json:"quick,omitempty"`
	Time       string  `json:"time"`
}

type resultFile struct {
	Header  header      `json:"header"`
	Results []runResult `json:"results"`
}

func newHeader(seed int64, seconds float64, quick bool) header {
	h := header{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: "unknown", Seed: seed, Seconds: seconds, Quick: quick,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	return h
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or \"all\"")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long each workload is measured")
	trace := fs.Int("trace", 0, "1 = traced run: spans around every layer call plus the per-layer ladder")
	quick := fs.Bool("quick", false, "shrink the fixed input sizes (smoke runs and tests; numbers are not comparable)")
	out := fs.String("out", "bench/out/result.json", "result file; trace.json and temp files go beside it")
	compare := fs.Bool("compare", false, "compare result files: -compare A.json... -- B.json...")
	update := fs.Bool("update-golden", false, "rewrite bench/golden.json from this run's simulated outputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args())
	}
	var selected []workload
	if *name == "all" {
		selected = workloadTable
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	hdr := newHeader(*seed, *seconds, *quick)
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s rev=%s seed=%d seconds=%g trace=%d quick=%v\n",
		hdr.NumCPU, hdr.GOMAXPROCS, hdr.GoVersion, hdr.Revision, *seed, *seconds, *trace, *quick)
	if hdr.NumCPU < 2 {
		fmt.Println("bench: WARNING: fewer than 2 CPUs: eval-sweep and the service workloads cannot load a second core, and par.speedup_p2 is meaningless")
	}
	fmt.Println("bench: host-time metrics are medians over the window; simulated statistics start from empty caches at cycle 0;")
	fmt.Println("bench: the model is unvalidated against hardware: fidelity.* is a shape check against the paper's Figure 9(a), not an error figure")

	outDir := filepath.Dir(*out)
	e := env{seed: *seed, quick: *quick, tmp: filepath.Join(outDir, "tmp")}
	golden := loadGolden()
	file := resultFile{Header: hdr}
	for _, w := range selected {
		res, outputs, err := measure(w, e, *seconds, *trace == 1, outDir, golden)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if *update {
			golden.record(e, outputs)
		}
		file.Results = append(file.Results, res)
		line, _ := json.Marshal(runResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics})
		fmt.Println(string(line))
	}
	if *update {
		if err := golden.save(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := writeResultFile(*out, file); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	// A run that produced a result exits 0 even when a check failed: the
	// result's "correct" and "failed" fields carry the verdict.
	return 0
}

func writeResultFile(path string, file resultFile) error {
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// measure runs one workload: repeated set-up, warm-up, the timed window,
// verification, and (traced) the ladder. It prints the report and returns
// the result with the simulated-output hashes.
func measure(w workload, e env, seconds float64, traced bool, outDir string, golden *goldenFile) (runResult, map[string]string, error) {
	fmt.Printf("\n== %s (seed %d): %s\n   op = %s; throughput in %s per host second\n", w.name, e.seed, w.why, w.op, w.unit)
	// Each workload's files live and die with it, so that one workload's
	// stored results cannot turn the next one's cold jobs into cache hits.
	e.tmp = filepath.Join(e.tmp, w.name)
	defer os.RemoveAll(e.tmp)
	inst, setupS, err := timedSetup(w, e)
	if err != nil {
		return runResult{}, nil, err
	}
	defer inst.close()
	if err := inst.warm(); err != nil {
		return runResult{}, nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	var tr *tracer
	window := time.Duration(seconds * float64(time.Second))
	if traced {
		tr = newTracer()
		window /= 2 // the ladder takes the other half
	}
	rec := newRecorder(tr)
	if w.traceEvery > 0 {
		rec.traceEvery = w.traceEvery
	}
	runtime.GC()
	m0, b0 := mallocs()
	start := time.Now()
	inst.run(start.Add(window), rec)
	elapsed := time.Since(start)
	m1, b1 := mallocs()
	inst.verify(rec)

	res := runResult{Workload: w.name, Seed: e.seed, Trace: traced, Metrics: map[string]metricValue{}}
	var ls layerSet
	if traced {
		ls = layerMetrics(res.Metrics, e, rec, elapsed, windowCounts{m1 - m0, b1 - b0})
	}
	// After the ladder, so that its simulated outputs are compared too.
	drift, checked := golden.compare(e, rec.outputs)
	if drift > 0 {
		fmt.Printf("   *** SIMULATED STATISTICS CHANGED: %d of %d golden outputs differ (bench/golden.json, seed %d) ***\n", drift, checked, e.seed)
	}
	if traced {
		ls.set("sim.stats_drift", float64(drift))
		ls.set("sim.stats_checked", float64(checked))
		if err := writeChromeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), "bench "+w.name, tr.spans); err != nil {
			return runResult{}, nil, err
		}
	} else {
		st := rec.stats(func(sample) bool { return true })
		res.Metrics["setup_s"] = metricValue{setupS, "s"}
		res.Metrics["op_p50_ms"] = metricValue{st.p50ms, "ms"}
		res.Metrics["throughput"] = metricValue{st.throughput(elapsed, w.rateByKind), "1/s"}
		fmt.Printf("   %d ops in %.2f s; tail: %s\n", st.n, elapsed.Seconds(), tailString(st.allLatency))
	}
	res.Attempted, res.Failed = rec.attempted, rec.failed
	res.Correct = rec.failed == 0 && rec.attempted > 0
	for _, f := range rec.failures {
		fmt.Printf("   FAILED: %s\n", f)
	}
	printMetrics(res.Metrics)
	return res, rec.outputs, nil
}

// tailString renders the highest percentile with at least ten samples beyond
// it, with the sample count it rests on.
func tailString(latency []float64) string {
	p, v := tailPercentile(latency)
	if p == 0 {
		return fmt.Sprintf("n=%d, too few samples for a tail percentile", len(latency))
	}
	return fmt.Sprintf("p%g = %.3f ms (n=%d)", p, v, len(latency))
}

func printMetrics(m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("   %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
