package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"equinox/internal/fleet"
	"equinox/internal/fleet/store"
	"equinox/internal/obs"
	"equinox/internal/service"
)

const (
	// serviceClients is the closed-loop client count: each client waits for
	// its job's result before submitting the next.
	serviceClients = 2
	// pollInterval is how long a client sleeps between status polls of a
	// job that is still running.
	pollInterval = 2 * time.Millisecond
	// warmSet is how many distinct cached jobs the warm workload cycles
	// through; it fits the server's in-memory result cache (128 entries).
	warmSet = 16
	// restartEntries is how many stored results the server starts on: set-up
	// is a restart on an existing result store, whose reload validates every
	// entry, not a first start on an empty directory. (A first start is two
	// fsyncs and little else, and its time follows the disk's mood: medians
	// of ten runs moved by 30% within minutes.)
	restartEntries = 256
	// seedStride separates the job seeds of different run seeds; far more
	// than the jobs a run can submit.
	seedStride = 1 << 20
)

// apiClient makes JSON calls to a job server.
type apiClient struct {
	url string
	hc  *http.Client
}

// serviceLoad is the two job-server workloads: an in-process service.Server
// with a disk store and a journal behind an httptest listener, driven by
// closed-loop HTTP clients. Cold submits specs the server has never seen;
// warm resubmits specs whose results it holds.
type serviceLoad struct {
	warmOnly bool
	dir      string // this instance's journal; the store directory is the run's
	disk     *store.Disk
	journal  *service.Journal
	srv      *service.Server
	ts       *httptest.Server
	apiClient
	e env

	next atomic.Int64 // next unused spec index

	mu      sync.Mutex
	results map[int][]byte // spec index → result document the server returned

	coldSubmitted, warmSubmitted atomic.Int64
}

// jobSpec is the run's i-th unique single-run job: SingleBase and EquiNox
// alternating on kmeans, distinguished by seed.
func jobSpec(e env, i int) []byte {
	scheme := "SingleBase"
	if i%2 == 1 {
		scheme = "EquiNox"
	}
	spec := service.JobSpec{
		Width: 8, Height: 8, NumCBs: 8,
		Schemes:           []string{scheme},
		Benchmarks:        []string{"kmeans"},
		InstructionsPerPE: e.pick(100, 30),
		Seed:              e.seed*seedStride + int64(i) + 1,
	}
	data, _ := json.Marshal(spec) // plain struct of ints and strings
	return data
}

// resultPayload stands in for a single-run result document: 8 KB of JSON.
var resultPayload = bytes.Repeat([]byte(`{"scheme":"EquiNox","execCycles":17612},`), 200)

// storeKey is the i-th synthetic content key, shaped like a SHA-256.
func storeKey(i int) string { return fmt.Sprintf("%064x", i) }

// populatedStore returns the result-store directory under e.tmp that every
// set-up of a run opens, filling it with restartEntries results on first
// use. It is built aside and renamed, so an interrupted run cannot leave a
// half-filled one behind.
func populatedStore(e env) (string, error) {
	dir := filepath.Join(e.tmp, "store")
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return "", err
	}
	partial, err := os.MkdirTemp(e.tmp, "store-partial-")
	if err != nil {
		return "", err
	}
	d, err := store.OpenDisk(partial, nil)
	if err != nil {
		return "", err
	}
	for i := 0; i < restartEntries; i++ {
		d.Put(storeKey(i), resultPayload)
	}
	if err := d.Close(); err != nil {
		return "", err
	}
	return dir, os.Rename(partial, dir)
}

// setupService starts a job server the way a restart does: on the run's
// existing result store, with a fresh journal, behind a fresh listener.
func setupService(e env, warmOnly bool) (instance, error) {
	storeDir, err := populatedStore(e) // a few hundred ms, once per run; later calls only stat it
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.tmp, "journal-")
	if err != nil {
		return nil, err
	}
	l := &serviceLoad{warmOnly: warmOnly, dir: dir, e: e, results: map[int][]byte{}}
	if l.disk, err = store.OpenDisk(storeDir, nil); err != nil {
		l.close()
		return nil, err
	}
	if l.journal, err = service.OpenJournal(dir, nil); err != nil {
		l.close()
		return nil, err
	}
	l.srv = service.New(service.Config{Workers: 2, JobParallelism: 1, Store: l.disk, Journal: l.journal})
	l.ts = httptest.NewServer(l.srv.Handler())
	l.apiClient = apiClient{url: l.ts.URL, hc: l.ts.Client()}
	return l, nil
}

func (l *serviceLoad) close() {
	if l.ts != nil {
		l.ts.Close()
	}
	if l.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = l.srv.Shutdown(ctx) // a timeout only means in-flight jobs were cancelled
		cancel()
	}
	if l.journal != nil {
		_ = l.journal.Close() // the directory is deleted next
	}
	if l.disk != nil {
		_ = l.disk.Close()
	}
	_ = os.RemoveAll(l.dir) // best effort; the directory is ignored by git
}

// warm fills the result cache for the warm workload: warmSet jobs run cold
// through the server, outside the timed window.
func (l *serviceLoad) warm() error {
	if !l.warmOnly {
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, serviceClients)
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(l.next.Add(1) - 1)
				if i >= warmSet {
					return
				}
				if _, err := l.coldJob(nil, i); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

func (l *serviceLoad) run(deadline time.Time, rec *recorder) {
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for n := lane; time.Now().Before(deadline); n += serviceClients {
				if l.warmOnly {
					l.warmOp(rec, n%warmSet, lane)
					continue
				}
				i := int(l.next.Add(1) - 1)
				o := rec.begin("cold job", i%2, lane)
				_, err := l.coldJob(o, i)
				o.done(1, err)
			}
		}(c)
	}
	wg.Wait()
}

// coldJob submits spec i, which the server has not seen, and polls until its
// result is served. o is nil outside the timed window.
func (l *serviceLoad) coldJob(o *op, i int) ([]byte, error) {
	var sub service.SubmitResponse
	sp := o.span("POST /v1/jobs", "service")
	code, err := l.call(http.MethodPost, "/v1/jobs", jobSpec(l.e, i), &sub)
	sp.end(nil)
	l.coldSubmitted.Add(1)
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted || sub.Cached {
		return nil, fmt.Errorf("cold submit of spec %d: status %d cached=%v, want 202 uncached", i, code, sub.Cached)
	}
	wait := o.span("wait for result", "service.wait")
	defer func() { wait.end(nil) }()
	for {
		var st service.JobStatus
		get := wait.child("GET /v1/jobs/{id}", "service")
		_, err := l.call(http.MethodGet, "/v1/jobs/"+sub.ID, nil, &st)
		get.end(nil)
		if err != nil {
			return nil, err
		}
		if st.Status.Finished() {
			if st.Status != service.JobDone || len(st.Result) == 0 {
				return nil, fmt.Errorf("job %s finished as %s (%s) with %d result bytes", sub.ID, st.Status, st.Error, len(st.Result))
			}
			l.mu.Lock()
			l.results[i] = st.Result
			l.mu.Unlock()
			return st.Result, nil
		}
		time.Sleep(pollInterval)
	}
}

// warmOp resubmits cached spec i and fetches its result.
func (l *serviceLoad) warmOp(rec *recorder, i, lane int) {
	o := rec.begin("warm job", 0, lane)
	var sub service.SubmitResponse
	var st service.JobStatus
	sp := o.span("POST /v1/jobs", "service")
	code, err := l.call(http.MethodPost, "/v1/jobs", jobSpec(l.e, i), &sub)
	sp.end(nil)
	l.warmSubmitted.Add(1)
	if err == nil && (code != http.StatusOK || !sub.Cached) {
		err = fmt.Errorf("warm submit of spec %d: status %d cached=%v, want 200 cached", i, code, sub.Cached)
	}
	if err == nil {
		sp = o.span("GET /v1/jobs/{id}", "service")
		_, err = l.call(http.MethodGet, "/v1/jobs/"+sub.ID, nil, &st)
		sp.end(map[string]float64{"bytes": float64(len(st.Result))})
	}
	o.done(1, err)
	if err != nil {
		return
	}
	l.mu.Lock()
	want := l.results[i]
	l.mu.Unlock()
	rec.check(bytes.Equal(st.Result, want), "warm job %d: cached result differs from the one first computed", i)
}

// call makes one HTTP request and decodes the JSON reply into out.
func (c apiClient) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// metricsText fetches the server's /v1/metrics exposition.
func (c apiClient) metricsText() (string, error) {
	resp, err := c.hc.Get(c.url + "/v1/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// verifySample is how many served results verify recomputes directly.
const verifySample = 6

// verify recomputes a sample of the served results with service.RunSpec and
// compares canonical bytes, then reconciles /v1/metrics.
func (l *serviceLoad) verify(rec *recorder) {
	for i := 0; i < verifySample; i++ {
		l.mu.Lock()
		got, ok := l.results[i]
		l.mu.Unlock()
		if !ok {
			break
		}
		doc, err := service.RunSpec(context.Background(), jobSpec(l.e, i), 1)
		if !rec.check(err == nil, "direct RunSpec of spec %d: %v", i, err) {
			continue
		}
		want, err1 := fleet.CanonicalResult(doc)
		have, err2 := fleet.CanonicalResult(got)
		rec.check(err1 == nil && err2 == nil && bytes.Equal(want, have),
			"job %d: served result differs from a direct service.RunSpec of its spec", i)
		if err2 == nil {
			rec.output(fmt.Sprintf("job/%d", i), have)
		}
	}
	l.reconcileMetrics(rec)
}

// reconcileMetrics checks that /v1/metrics is a valid exposition whose
// submitted, completed and cache-hit counters equal the load generator's own
// counts, and returns its samples.
func (l *serviceLoad) reconcileMetrics(rec *recorder) map[string]float64 {
	text, err := l.metricsText()
	if !rec.check(err == nil, "GET /v1/metrics: %v", err) {
		return nil
	}
	err = obs.ValidateExposition(text)
	rec.check(err == nil, "/v1/metrics is not a valid exposition: %v", err)
	m := parseExposition(text)
	cold, warm := float64(l.coldSubmitted.Load()), float64(l.warmSubmitted.Load())
	rec.check(m["equinox_jobs_submitted_total"] == cold, "server counted %v submitted jobs, clients sent %v", m["equinox_jobs_submitted_total"], cold)
	rec.check(m["equinox_jobs_completed_total"] == cold, "server counted %v completed jobs, clients saw %v", m["equinox_jobs_completed_total"], cold)
	rec.check(m["equinox_cache_hits_total"] == warm, "server counted %v cache hits, clients resubmitted %v", m["equinox_cache_hits_total"], warm)
	return m
}

// parseExposition reads a Prometheus text exposition into a map from sample
// name to value, summing a labelled family's children (its per-scheme
// histograms' _sum and _count, for one).
func parseExposition(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		at := strings.LastIndexByte(line, ' ')
		if at < 0 {
			continue
		}
		name, _, _ := strings.Cut(line[:at], "{")
		if v, err := strconv.ParseFloat(line[at+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out
}
