package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"equinox/internal/chaos"
	"equinox/internal/fleet"
	"equinox/internal/fleet/store"
)

// chaosSpec is the convergence workload: 2 units (2 schemes × 1
// benchmark) on a small mesh, big enough to shard, small enough that a
// full scenario — faults, retries, restarts — stays in CI budget on a
// 1-CPU machine.
func chaosSpec() JobSpec {
	return JobSpec{
		Width: 4, Height: 4, NumCBs: 2,
		Schemes:           []string{"SingleBase", "EquiNox"},
		Benchmarks:        []string{"kmeans"},
		InstructionsPerPE: 100,
	}
}

// chaosFleetConfig shortens every fleet timescale so injected faults
// resolve in milliseconds: fast lease expiry and sweeps, a generous
// retry budget (injected faults burn attempts), and a circuit breaker
// that quarantines briefly instead of for the default 30s.
func chaosFleetConfig() fleet.Config {
	return fleet.Config{
		LeaseTTL:         300 * time.Millisecond,
		WorkerTTL:        10 * time.Second,
		SweepInterval:    20 * time.Millisecond,
		RetryBackoff:     10 * time.Millisecond,
		MaxAttempts:      10,
		BreakerThreshold: 2,
		BreakerCooldown:  200 * time.Millisecond,
	}
}

// startChaosWorkers runs n in-process fleet workers whose protocol
// traffic flows through the given (typically fault-injecting) client and
// blocks until the coordinator sees them beside its own executors. The
// returned counter counts the units they ran.
func startChaosWorkers(t *testing.T, s *Server, ts *httptest.Server, n int, client *http.Client) *atomic.Int64 {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	var ran atomic.Int64
	for i := 0; i < n; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			Coordinator:       ts.URL,
			Name:              fmt.Sprintf("chaosworker-%d", i),
			PollInterval:      10 * time.Millisecond,
			HeartbeatInterval: 25 * time.Millisecond,
			Client:            client,
			Run: func(ctx context.Context, u fleet.Unit) ([]byte, error) {
				ran.Add(1)
				return RunSpec(ctx, u.Spec, 1)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run(ctx) //nolint:errcheck
	}
	waitFor(t, "chaos workers registered", func() bool {
		return s.coord.ActiveWorkers() >= s.cfg.Workers+n
	})
	return &ran
}

// checkRemoteRan fails the scenario unless the chaos workers ran every
// unit of chaosSpec at least once: the server's executors were stopped, so
// the faults sat on the only path.
func checkRemoteRan(t *testing.T, ran *atomic.Int64) {
	t.Helper()
	if n := ran.Load(); n < 2 {
		t.Errorf("chaos workers ran %d units, want >= 2", n)
	}
}

// chaosArtifact is the per-scenario record written to CHAOS_ARTIFACT_DIR
// (CI uploads the directory when the chaos job fails).
type chaosArtifact struct {
	Scenario string           `json:"scenario"`
	Seed     int64            `json:"seed"`
	Faults   map[string]int64 `json:"faults"`
	Events   []fleet.Event    `json:"events,omitempty"`
	Journal  string           `json:"journal,omitempty"`
}

func writeChaosArtifact(t *testing.T, a chaosArtifact) {
	dir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos artifact dir: %v", err)
		return
	}
	raw, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Logf("chaos artifact marshal: %v", err)
		return
	}
	name := fmt.Sprintf("%s-seed%d.json", a.Scenario, a.Seed)
	if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
		t.Logf("chaos artifact write: %v", err)
	}
}

// eventLog drains a finished job's SSE stream (the hub replays history
// to late subscribers) for the artifact record.
func eventLog(t *testing.T, ts *httptest.Server, id string) []fleet.Event {
	t.Helper()
	recs := readSSE(t, ts, id)
	evs := make([]fleet.Event, 0, len(recs))
	for _, r := range recs {
		evs = append(evs, r.ev)
	}
	return evs
}

// TestChaosConvergence is the chaos harness: each scenario runs the
// same sweep under a different deterministic fault regime and must
// produce the byte-identical canonical result of a fault-free
// single-process run. One seed in the ordinary test run; `make
// chaos-smoke` (CHAOS_SMOKE=1) widens the seed set.
func TestChaosConvergence(t *testing.T) {
	want := singleProcessCanonical(t, chaosSpec())
	seeds := []int64{42}
	if os.Getenv("CHAOS_SMOKE") != "" {
		seeds = []int64{1, 2, 3}
	}
	scenarios := []struct {
		name string
		run  func(t *testing.T, seed int64) ([]byte, chaosArtifact)
	}{
		{"store-error", chaosStoreErrorScenario},
		{"network-partition", chaosNetworkScenario},
		{"worker-kill", chaosWorkerKillScenario},
		{"coordinator-restart", chaosRestartScenario},
	}
	for _, sc := range scenarios {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				got, art := sc.run(t, seed)
				art.Scenario, art.Seed = sc.name, seed
				writeChaosArtifact(t, art)
				if !bytes.Equal(got, want) {
					t.Fatalf("result diverged under %s (seed %d, faults %v):\n--- got ---\n%s\n--- want ---\n%s",
						sc.name, seed, art.Faults, got, want)
				}
				t.Logf("converged; injected faults: %v", art.Faults)
			})
		}
	}
}

// chaosStoreErrorScenario points the server's persistent tier at a
// fault-injecting store wrapper: dropped writes, torn on-disk files,
// spurious read misses, slow reads. The memory tier and recomputation
// must absorb all of it. Also cross-checks that every injected fault
// reached the equinox_chaos_injected_total metric via the server hook.
func chaosStoreErrorScenario(t *testing.T, seed int64) ([]byte, chaosArtifact) {
	inj := chaos.New(seed)
	dir := t.TempDir()
	disk, err := store.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	faulty := inj.WrapStore(disk, chaos.StoreFaults{
		PutError:  0.4,
		TornWrite: 0.3,
		Dir:       dir,
		GetMiss:   0.4,
		ReadDelay: 0.2,
		Delay:     time.Millisecond,
	})
	s, ts := newTestServer(t, Config{
		Workers: 1, Store: faulty, Chaos: inj, Fleet: chaosFleetConfig(),
	})
	remoteOnly(t, s)
	ran := startChaosWorkers(t, s, ts, 1, nil)

	sub, code := submit(t, ts, chaosSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	got := fetchResult(t, ts, sub.ID)
	checkRemoteRan(t, ran)

	m := getMetrics(t, ts)
	for kind, n := range inj.Counts() {
		metric := fmt.Sprintf("equinox_chaos_injected_total{kind=%q}", kind)
		if m[metric] != n {
			t.Errorf("%s = %d, injector counted %d", metric, m[metric], n)
		}
	}
	return got, chaosArtifact{Faults: inj.Counts(), Events: eventLog(t, ts, sub.ID)}
}

// chaosNetworkScenario runs the whole worker protocol — lease,
// complete, heartbeat — through a transport that drops, delays,
// duplicates, and 5xx-rewrites requests. Retries, lease expiry, and the
// per-worker circuit breaker must still drive the sweep to the exact
// fault-free bytes.
func chaosNetworkScenario(t *testing.T, seed int64) ([]byte, chaosArtifact) {
	inj := chaos.New(seed)
	rt := inj.WrapTransport(nil, chaos.NetFaults{
		Drop:    0.15,
		Delay:   0.2,
		DelayBy: 5 * time.Millisecond,
		Dup:     0.15,
		Err5xx:  0.15,
	})
	client := &http.Client{Transport: rt, Timeout: 10 * time.Second}
	s, ts := newTestServer(t, Config{
		Workers: 1, Chaos: inj, Fleet: chaosFleetConfig(),
	})
	remoteOnly(t, s)
	ran := startChaosWorkers(t, s, ts, 2, client)

	sub, code := submit(t, ts, chaosSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	got := fetchResult(t, ts, sub.ID)
	checkRemoteRan(t, ran)
	return got, chaosArtifact{Faults: inj.Counts(), Events: eventLog(t, ts, sub.ID)}
}

// chaosWorkerKillScenario is a deterministic worker crash: a worker
// registers, leases a unit, and dies silently. The lease must expire,
// the unit re-lease to a healthy worker, and the assembled result stay
// byte-identical.
func chaosWorkerKillScenario(t *testing.T, seed int64) ([]byte, chaosArtifact) {
	inj := chaos.New(seed) // no probabilistic faults; the kill is the fault
	s, ts := newTestServer(t, Config{
		Workers: 1, Chaos: inj, Fleet: chaosFleetConfig(),
	})
	remoteOnly(t, s)

	// Register the doomed worker.
	hb, err := json.Marshal(fleet.HeartbeatRequest{Worker: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/fleet/heartbeat", "application/json", bytes.NewReader(hb))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sub, code := submit(t, ts, chaosSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	// The doomed worker takes one unit to its grave.
	lease, err := json.Marshal(fleet.LeaseRequest{Worker: "doomed"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/fleet/lease", "application/json", bytes.NewReader(lease))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("doomed lease: %d", resp.StatusCode)
	}

	ran := startChaosWorkers(t, s, ts, 1, nil)
	got := fetchResult(t, ts, sub.ID)
	checkRemoteRan(t, ran) // the unit the doomed worker left, and the other

	if n := getMetrics(t, ts)["equinox_fleet_leases_expired_total"]; n < 1 {
		t.Errorf("leases expired = %d, want >= 1", n)
	}
	return got, chaosArtifact{Faults: inj.Counts(), Events: eventLog(t, ts, sub.ID)}
}

// chaosRestartScenario kills the whole coordinator process mid-job and
// boots a replacement on the same journal and store directories; the
// journal replay must re-run the job to byte-identical bytes.
func chaosRestartScenario(t *testing.T, seed int64) ([]byte, chaosArtifact) {
	inj := chaos.New(seed)
	storeDir, journalDir := t.TempDir(), t.TempDir()

	disk1, err := store.OpenDisk(storeDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := OpenJournal(journalDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, Journal: j1, Store: disk1, Chaos: inj})
	ts1 := httptest.NewServer(s1.Handler())
	// Occupy the only worker with a longer job so the target sweep is
	// still queued — guaranteed non-terminal — when the process dies.
	occupier := smallSpec()
	occupier.InstructionsPerPE = 2000
	occ, code := submit(t, ts1, occupier)
	if code != http.StatusAccepted {
		t.Fatalf("occupier submit: %d", code)
	}
	waitFor(t, "occupier running before kill", func() bool {
		st, _ := getJob(t, ts1, occ.ID)
		return st.Status == JobRunning
	})
	sub, code := submit(t, ts1, chaosSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	ts1.Close()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	s1.Shutdown(expired) //nolint:errcheck
	j1.Close()
	disk1.Close()

	disk2, err := store.OpenDisk(storeDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk2.Close() })
	j2, err := OpenJournal(journalDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j2.Close() })
	_, ts2 := newTestServer(t, Config{Workers: 1, Journal: j2, Store: disk2, Chaos: inj})
	got := fetchResult(t, ts2, sub.ID)

	journalRaw, _ := os.ReadFile(filepath.Join(journalDir, "journal.log"))
	return got, chaosArtifact{
		Faults:  inj.Counts(),
		Events:  eventLog(t, ts2, sub.ID),
		Journal: string(journalRaw),
	}
}
