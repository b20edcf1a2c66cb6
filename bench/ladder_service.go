package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"equinox/internal/fleet"
	"equinox/internal/fleet/store"
	"equinox/internal/service"
)

func ladderService(ls layerSet, e env, rec *recorder) {
	spec := service.JobSpec{Schemes: []string{"EquiNox", "SingleBase"}, Benchmarks: []string{"kmeans", "bfs"}, InstructionsPerPE: 100, Seed: e.seed}
	var err error
	ls.set("service.spec_key_us", us(timeReps(200, func() { _, err = spec.Key() })))
	rec.check(err == nil, "service rung: spec key: %v", err)

	// A store of its own: the traced workload's server may still hold the
	// run's open, with results for these very specs in it.
	e.tmp = filepath.Join(e.tmp, "ladder")
	inst, err := setupService(e, false)
	if !rec.check(err == nil, "service rung: %v", err) {
		return
	}
	l := inst.(*serviceLoad)
	defer l.close()

	// A few cold jobs from one client, then the same specs run directly:
	// the difference is what the server adds to a simulation.
	const jobs = 6
	var coldMS, directMS []float64
	for i := 0; i < jobs; i++ {
		t0 := time.Now()
		_, err := l.coldJob(nil, i)
		coldMS = append(coldMS, ms(time.Since(t0)))
		if !rec.check(err == nil, "service rung: cold job %d: %v", i, err) {
			return
		}
	}
	for i := 0; i < jobs; i++ {
		t0 := time.Now()
		_, err := service.RunSpec(context.Background(), jobSpec(e, i), 1)
		directMS = append(directMS, ms(time.Since(t0)))
		rec.check(err == nil, "service rung: direct run %d: %v", i, err)
	}
	ls.set("service.cold_job_p50_ms", median(coldMS))
	ls.set("service.overhead_ms", median(coldMS)-median(directMS))

	// Warm round trips, one client.
	var submitUS, getUS []float64
	for n := 0; n < e.pick(400, 100); n++ {
		var sub service.SubmitResponse
		var st service.JobStatus
		t0 := time.Now()
		code, err := l.call(http.MethodPost, "/v1/jobs", jobSpec(e, n%jobs), &sub)
		t1 := time.Now()
		l.warmSubmitted.Add(1)
		if !rec.check(err == nil && code == http.StatusOK && sub.Cached, "service rung: warm submit: status %d cached=%v err=%v", code, sub.Cached, err) {
			return
		}
		_, err = l.call(http.MethodGet, "/v1/jobs/"+sub.ID, nil, &st)
		getUS = append(getUS, us(time.Since(t1)))
		submitUS = append(submitUS, us(t1.Sub(t0)))
		if !rec.check(err == nil, "service rung: warm get: %v", err) {
			return
		}
	}
	ls.set("service.submit_rtt_p50_us", median(submitUS))
	ls.set("service.get_rtt_p50_us", median(getUS))
	ls.set("service.metrics_render_ms", ms(timeReps(20, func() { _, err = l.metricsText() })))
	rec.check(err == nil, "service rung: /v1/metrics: %v", err)

	m := l.reconcileMetrics(rec)
	if c := m["equinox_job_queue_wait_seconds_count"]; c > 0 {
		ls.set("service.queue_wait_mean_ms", 1e3*m["equinox_job_queue_wait_seconds_sum"]/c)
	}
	if total := m["equinox_cache_hits_total"] + m["equinox_cache_misses_total"]; total > 0 {
		ls.set("service.cache_hit_ratio", m["equinox_cache_hits_total"]/total)
	}
}

func ladderStore(ls layerSet, e env, rec *recorder) {
	err := os.MkdirAll(e.tmp, 0o755)
	if !rec.check(err == nil, "store rung: %v", err) {
		return
	}
	dir, err := os.MkdirTemp(e.tmp, "store-")
	if !rec.check(err == nil, "store rung: %v", err) {
		return
	}
	defer os.RemoveAll(dir)
	payload, key := resultPayload, storeKey

	disk, err := store.OpenDisk(filepath.Join(dir, "store"), nil)
	if !rec.check(err == nil, "store rung: %v", err) {
		return
	}
	defer disk.Close()
	n := e.pick(40, 10)
	i := 0
	ls.set("store.disk_put_us", us(timeReps(n, func() { disk.Put(key(i), payload); i++ })))
	i = 0
	hit := true
	ls.set("store.disk_get_us", us(timeReps(n, func() { _, ok := disk.Get(key(i)); hit = hit && ok; i++ })))
	rec.check(hit, "store rung: a disk Get missed a key just Put")

	mem := store.NewMemory(128, 0)
	for k := 0; k < 64; k++ {
		mem.Put(key(k), payload)
	}
	const gets = 100000
	t0 := time.Now()
	for k := 0; k < gets; k++ {
		_, ok := mem.Get(key(k % 64))
		hit = hit && ok
	}
	ls.set("store.mem_get_ns", float64(time.Since(t0).Nanoseconds())/gets)
	rec.check(hit, "store rung: a memory Get missed a key just Put")

	tiered := store.NewTiered(store.NewMemory(128, 0), disk)
	i = 1 << 20
	miss := true
	ls.set("store.tiered_miss_us", us(timeReps(200, func() { _, ok := tiered.Get(key(i)); miss = miss && !ok; i++ })))
	rec.check(miss, "store rung: a tiered Get hit a key never Put")

	jdir := filepath.Join(dir, "journal")
	j, err := service.OpenJournal(jdir, nil)
	if !rec.check(err == nil, "journal rung: %v", err) {
		return
	}
	spec := json.RawMessage(`{"width":8,"height":8,"numCBs":8,"schemes":["EquiNox"],"benchmarks":["kmeans"],"seed":1}`)
	i = 0
	ls.set("journal.submit_fsync_us", us(timeReps(n, func() { j.Submit(key(i), spec); i++ })))
	for k := 0; k < 1000-n; k++ { // unit records are appended without fsync
		j.Unit(key(k%n), key(k), "completed")
	}
	rec.check(j.Close() == nil, "journal rung: close failed")
	var pending int
	ls.set("journal.replay_ms", ms(timeReps(1, func() {
		j, err = service.OpenJournal(jdir, nil)
		if err == nil {
			pending = len(j.Pending())
		}
	})))
	if rec.check(err == nil, "journal rung: replay: %v", err) {
		rec.check(pending == n, "journal rung: replay found %d pending jobs, want %d", pending, n)
		_ = j.Close()
	}
}

// fleetUnits derives the per-(scheme, benchmark) work units of a sweep the
// way the job server does: each a canonical single-run spec keyed by its
// content hash.
func fleetUnits(jobID string, spec service.JobSpec) ([]fleet.Unit, error) {
	var units []fleet.Unit
	for _, s := range spec.Schemes {
		for _, b := range spec.Benchmarks {
			one := spec
			one.Schemes, one.Benchmarks = []string{s}, []string{b}
			canon, err := one.Canonicalize()
			if err != nil {
				return nil, err
			}
			key, err := canon.Key()
			if err != nil {
				return nil, err
			}
			raw, err := json.Marshal(canon)
			if err != nil {
				return nil, err
			}
			units = append(units, fleet.Unit{JobID: jobID, Key: key, Scheme: s, Benchmark: b, Spec: raw})
		}
	}
	return units, nil
}

func ladderFleet(ls layerSet, e env, rec *recorder) {
	sweep := func(k int) service.JobSpec {
		return service.JobSpec{
			Width: 8, Height: 8, NumCBs: 8,
			Schemes: []string{"SingleBase", "EquiNox"}, Benchmarks: []string{"bfs", "hotspot", "kmeans"},
			InstructionsPerPE: e.pick(30, 15), Seed: e.seed*64 + int64(k) + 1,
		}
	}

	// Lease and complete against a coordinator directly: the protocol's own
	// cost, with the last Complete also assembling the job's document.
	units, err := fleetUnits("ladder", sweep(0))
	if !rec.check(err == nil, "fleet rung: %v", err) {
		return
	}
	docs := map[string][]byte{}
	for _, u := range units {
		doc, err := service.RunSpec(context.Background(), u.Spec, 1)
		if !rec.check(err == nil, "fleet rung: unit %s/%s: %v", u.Scheme, u.Benchmark, err) {
			return
		}
		docs[u.Key] = doc
	}
	coord := fleet.NewCoordinator(fleet.Config{})
	assembled := make(chan error, 1)
	err = coord.SubmitJob("ladder", fleet.Batch, units, fleet.JobCallbacks{OnDone: func(_ []byte, err error) { assembled <- err }})
	if !rec.check(err == nil, "fleet rung: submit: %v", err) {
		coord.Close()
		return
	}
	var leaseUS []float64
	var lastComplete time.Duration
	for range units {
		t0 := time.Now()
		grant, ok := coord.Lease("ladder-worker")
		t1 := time.Now()
		if !rec.check(ok, "fleet rung: no unit to lease") {
			break
		}
		err := coord.Complete(grant.LeaseID, docs[grant.Unit.Key], "", nil, nil)
		lastComplete = time.Since(t1)
		leaseUS = append(leaseUS, us(t1.Sub(t0))+us(lastComplete))
		rec.check(err == nil, "fleet rung: complete: %v", err)
	}
	select {
	case err := <-assembled:
		rec.check(err == nil, "fleet rung: assembly: %v", err)
	case <-time.After(5 * time.Second):
		rec.check(false, "fleet rung: the job never assembled")
	}
	coord.Close()
	ls.set("fleet.lease_rtt_p50_us", median(leaseUS))
	ls.set("fleet.assemble_ms", ms(lastComplete))

	// Two in-process workers pulling units over HTTP from a job server.
	srv := service.New(service.Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
		ts.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = srv.Shutdown(sctx) // a timeout only means in-flight jobs were cancelled
		scancel()
	}()
	for i := 0; i < 2; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator: ts.URL, Name: fmt.Sprintf("bench-worker-%d", i),
			PollInterval: 5 * time.Millisecond, HeartbeatInterval: 50 * time.Millisecond,
			Run: func(ctx context.Context, u fleet.Unit) ([]byte, error) { return service.RunSpec(ctx, u.Spec, 1) },
		})
		if !rec.check(err == nil, "fleet rung: worker: %v", err) {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx) // returns the context's error when cancelled below
		}()
	}
	api := apiClient{url: ts.URL, hc: ts.Client()}
	scrape := func() map[string]float64 {
		text, err := api.metricsText()
		if err != nil {
			return nil
		}
		return parseExposition(text)
	}
	deadline := time.Now().Add(5 * time.Second)
	for scrape()["equinox_fleet_workers"] < 2 {
		if !rec.check(time.Now().Before(deadline), "fleet rung: workers never registered") {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	const sweeps = 8
	var ids []string
	t0 := time.Now()
	for k := 0; k < sweeps; k++ {
		body, _ := json.Marshal(sweep(k + 1))
		var sub service.SubmitResponse
		_, err := api.call(http.MethodPost, "/v1/jobs", body, &sub)
		if !rec.check(err == nil, "fleet rung: submit sweep %d: %v", k, err) {
			return
		}
		ids = append(ids, sub.ID)
	}
	for _, id := range ids {
		for {
			var st service.JobStatus
			_, err := api.call(http.MethodGet, "/v1/jobs/"+id, nil, &st)
			if !rec.check(err == nil, "fleet rung: poll: %v", err) {
				return
			}
			if st.Status.Finished() {
				rec.check(st.Status == service.JobDone, "fleet rung: sweep finished as %s: %s", st.Status, st.Error)
				break
			}
			time.Sleep(pollInterval)
		}
	}
	wall := time.Since(t0).Seconds()
	m := scrape()
	done := m["equinox_fleet_units_completed_total"]
	rec.check(done == sweeps*6, "fleet rung: %v units completed, want %d", done, sweeps*6)
	ls.set("fleet.units_per_s", done/wall)
	if c := m["equinox_fleet_unit_duration_seconds_count"]; c > 0 {
		ls.set("fleet.unit_rtt_mean_ms", 1e3*m["equinox_fleet_unit_duration_seconds_sum"]/c)
	}
}
