package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"equinox/internal/stats"
)

// env is what a workload's set-up may depend on: the seed its inputs are
// generated from, the size scale, and a directory for files it creates.
type env struct {
	seed  int64
	quick bool   // shrink the fixed sizes (tests, smoke runs)
	tmp   string // temp files go under here, inside the checkout
}

// pick returns the normal size, or the quick one under -quick.
func (e env) pick(normal, quick int) int {
	if e.quick {
		return quick
	}
	return normal
}

// instance is one set-up of a workload, ready to be measured.
type instance interface {
	// warm fills caches the workload is defined to start with (untimed).
	warm() error
	// run performs closed-loop operations until the deadline passes and
	// records each in rec. An operation in flight at the deadline finishes.
	run(deadline time.Time, rec *recorder)
	// verify checks outputs that are too costly to check per operation.
	verify(rec *recorder)
	close()
}

// workload is one row of the benchmark's workload table.
type workload struct {
	name string
	why  string
	// op and unit name the timed operation and the work it completes, for
	// the printed report.
	op, unit string
	// rateByKind makes throughput the geomean over operation kinds of each
	// kind's own work rate, so that the slowest kind (DA2Mesh) does not
	// drown the others. Only for single-client workloads.
	rateByKind bool
	// traceEvery overrides the share of operations a traced run records
	// (one in traceEvery; 0 = the default of one in two).
	traceEvery int
	setup      func(e env) (instance, error)
}

// sample is one completed operation.
type sample struct {
	kind   int
	ms     float64
	work   float64
	traced bool
	failed bool
}

// recorder collects a run's samples, checks and output hashes. It is shared
// by a workload's client goroutines.
type recorder struct {
	tr *tracer // nil in an untraced run
	// traceEvery is the share of operations a traced run records: one in
	// traceEvery of each kind.
	traceEvery int

	mu        sync.Mutex
	samples   []sample
	perKind   map[int]int
	nextOp    int
	attempted int
	failed    int
	failures  []string          // first few messages, for the report
	outputs   map[string]string // output name → SHA-256, for repeat and golden checks
}

func newRecorder(tr *tracer) *recorder {
	return &recorder{tr: tr, traceEvery: 2, perKind: map[int]int{}, outputs: map[string]string{}}
}

// check records one correctness check; a failed one fails the run.
func (r *recorder) check(ok bool, format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// output hashes a simulated output. The simulator is deterministic, so a
// second output under the same name must repeat the first exactly; the
// hashes also feed the golden comparison (golden.go).
func (r *recorder) output(name string, data []byte) {
	sum := sha256.Sum256(data)
	h := hex.EncodeToString(sum[:])
	r.mu.Lock()
	prev, seen := r.outputs[name]
	if !seen {
		r.outputs[name] = h
	}
	r.mu.Unlock()
	if seen {
		r.check(prev == h, "%s: output differs between two runs of the same input", name)
	}
}

// op is one operation in flight.
type op struct {
	rec   *recorder
	tr    *tracer // nil when this operation is not traced
	id    int
	root  int
	kind  int
	lane  int
	start time.Time
}

// begin starts an operation. In a traced run one operation in traceEvery of
// a kind records spans and the others do not, so that one run yields both
// sides of the tracing-overhead comparison under the same conditions.
func (r *recorder) begin(name string, kind, lane int) *op {
	r.mu.Lock()
	id := r.nextOp
	r.nextOp++
	nth := r.perKind[kind]
	r.perKind[kind]++
	r.mu.Unlock()
	o := &op{rec: r, id: id, kind: kind, lane: lane, root: -1}
	if r.tr != nil && nth%r.traceEvery == r.traceEvery-1 {
		o.tr = r.tr
	}
	o.start = time.Now()
	o.root = o.tr.start(name, "bench", -1, id, lane)
	return o
}

// spanHandle is an open span of an operation. The zero handle does nothing;
// so does the handle of an untraced operation.
type spanHandle struct {
	o  *op
	id int
}

// span times one call into a layer's exported function. A nil op (a call
// made outside the timed window) yields the zero handle.
func (o *op) span(name, layer string) spanHandle {
	if o == nil {
		return spanHandle{}
	}
	return spanHandle{o: o, id: o.tr.start(name, layer, o.root, o.id, o.lane)}
}

// child opens a span caused by h.
func (h spanHandle) child(name, layer string) spanHandle {
	if h.o == nil {
		return h
	}
	return spanHandle{o: h.o, id: h.o.tr.start(name, layer, h.id, h.o.id, h.o.lane)}
}

// end closes the span, attaching counters read at the same boundary.
func (h spanHandle) end(counts map[string]float64) {
	if h.o != nil {
		h.o.tr.end(h.id, counts)
	}
}

// done ends the operation: work is what it completed, in the workload's unit.
func (o *op) done(work float64, err error) {
	ms := float64(time.Since(o.start).Nanoseconds()) / 1e6
	o.tr.end(o.root, map[string]float64{"work": work})
	o.rec.check(err == nil, "op %d (kind %d): %v", o.id, o.kind, err)
	o.rec.mu.Lock()
	o.rec.samples = append(o.rec.samples, sample{kind: o.kind, ms: ms, work: work, traced: o.tr != nil, failed: err != nil})
	o.rec.mu.Unlock()
}

// opStats summarises the samples that match keep.
type opStats struct {
	n     int
	p50ms float64 // geomean over kinds of each kind's median latency
	// kindRate is the geomean over kinds of each kind's median work rate
	// (work per second of one operation).
	kindRate   float64
	work       float64
	allLatency []float64
}

func (r *recorder) stats(keep func(sample) bool) opStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var st opStats
	latency, rate := map[int][]float64{}, map[int][]float64{}
	for _, s := range r.samples {
		if s.failed || !keep(s) {
			continue
		}
		st.n++
		st.work += s.work
		st.allLatency = append(st.allLatency, s.ms)
		latency[s.kind] = append(latency[s.kind], s.ms)
		rate[s.kind] = append(rate[s.kind], s.work/(s.ms/1e3))
	}
	var p50s, rates []float64
	for k := range latency {
		p50s = append(p50s, median(latency[k]))
		rates = append(rates, median(rate[k]))
	}
	st.p50ms, st.kindRate = stats.GeoMean(p50s), stats.GeoMean(rates)
	return st
}

// throughput is work per host second: total work over the elapsed window,
// or the geomean of the per-kind rates for rateByKind workloads.
func (st opStats) throughput(elapsed time.Duration, byKind bool) float64 {
	if byKind {
		return st.kindRate
	}
	if elapsed <= 0 {
		return 0
	}
	return st.work / elapsed.Seconds()
}

// eachCore runs fn on one goroutine per CPU and waits for all of them. Every
// workload keeps every core busy: on the 2-vCPU hosts this runs on, a
// single-threaded loop flips between two speeds 28% apart, for 5 to 15 s at a
// time, depending on whether anything else occupies the sibling vCPU; with
// both busy the speed is steady. It is also how sweeps and the job server
// run simulations in production.
func eachCore(fn func(lane int)) {
	var wg sync.WaitGroup
	for lane := 0; lane < runtime.NumCPU(); lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			fn(lane)
		}(lane)
	}
	wg.Wait()
}

// occupyOtherCores keeps every core but the caller's busy until the returned
// func is called, so that single-threaded measurements (set-up, the ladder's
// kernels) see the same contended host as the workloads do. The load is an
// arithmetic loop that allocates nothing, so process-wide allocation counts
// taken meanwhile stay the measured code's own.
func occupyOtherCores() (stop func()) {
	var quit atomic.Bool
	var wg sync.WaitGroup
	for i := 1; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for !quit.Load() {
				for k := 0; k < 4096; k++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			spinSink.Store(x)
		}()
	}
	return func() {
		quit.Store(true)
		wg.Wait()
	}
}

// spinSink keeps the compiler from deleting occupyOtherCores' loop.
var spinSink atomic.Uint64

// A run repeats the workload's set-up to take the median: at least
// minSetupReps times, then until setupBudget is spent. The sub-millisecond
// set-ups (a temp dir, two files and a listener) repeat a few hundred times;
// their single times scatter by half.
const (
	minSetupReps = 5
	maxSetupReps = 400
	setupBudget  = 500 * time.Millisecond
)

// timedSetup sets the workload up repeatedly, keeps the last instance and
// returns the median set-up time in seconds.
func timedSetup(w workload, e env) (instance, float64, error) {
	defer occupyOtherCores()()
	var times []float64
	var inst instance
	var spent time.Duration
	for rep := 0; rep < maxSetupReps && (rep < minSetupReps || spent < setupBudget); rep++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(e)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	return inst, median(times), nil
}

// mallocs reads the process's cumulative heap-object count.
func mallocs() (objects, bytes float64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Mallocs), float64(m.TotalAlloc)
}
