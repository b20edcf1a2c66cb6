package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"equinox/internal/fleet"
)

// TestFleetSmoke is the end-to-end fleet check `make fleet-smoke` runs:
// it builds the real equinox-server and equinox-worker binaries, starts a
// coordinator with a disk store and one in-process executor plus two
// worker processes, keeps the executor busy so the smoke sweep's units go
// to the workers, and compares the assembled result byte for byte against
// the committed single-process golden. Gated behind FLEET_SMOKE=1 because
// it builds binaries and forks processes.
//
// Set FLEET_SMOKE_STORE_DIR to pin the coordinator's store directory
// (CI points it at a workspace path and uploads it on failure).
func TestFleetSmoke(t *testing.T) {
	if os.Getenv("FLEET_SMOKE") == "" {
		t.Skip("set FLEET_SMOKE=1 to run the fleet smoke test")
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with GOLDEN_UPDATE=1)", err)
	}

	bin := t.TempDir()
	serverBin := filepath.Join(bin, "equinox-server")
	workerBin := filepath.Join(bin, "equinox-worker")
	for target, out := range map[string]string{
		"equinox/cmd/equinox-server": serverBin,
		"equinox/cmd/equinox-worker": workerBin,
	} {
		cmd := exec.Command("go", "build", "-o", out, target)
		cmd.Dir = "../.." // module root
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", target, err, msg)
		}
	}

	storeDir := os.Getenv("FLEET_SMOKE_STORE_DIR")
	if storeDir == "" {
		storeDir = t.TempDir()
	} else if err := os.MkdirAll(storeDir, 0o755); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	// Coordinator on an ephemeral port; its "listening on" line tells us
	// which.
	server := exec.CommandContext(ctx, serverBin,
		"-addr", "127.0.0.1:0",
		"-workers", "1",
		"-store-dir", storeDir,
		"-lease-ttl", "5s",
		"-log-format", "json")
	stderr, err := server.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		server.Process.Kill() //nolint:errcheck
		server.Wait()         //nolint:errcheck
	}()

	listening := regexp.MustCompile(`listening on (\S+)`)
	var base string
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			select {
			case lines <- sc.Text():
			default: // keep draining so the child never blocks on stderr
			}
		}
		close(lines)
	}()
	deadline := time.After(30 * time.Second)
	for base == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("server exited before announcing its address")
			}
			if m := listening.FindStringSubmatch(line); m != nil {
				base = "http://" + m[1]
			}
		case <-deadline:
			t.Fatal("server never announced its address")
		}
	}
	go func() { // drop the rest of the log
		for range lines {
		}
	}()

	// Two workers against the coordinator.
	for i := 0; i < 2; i++ {
		w := exec.CommandContext(ctx, workerBin,
			"-coordinator", base,
			"-name", fmt.Sprintf("smoke-%d", i),
			"-poll", "50ms",
			"-heartbeat", "250ms")
		w.Stderr = io.Discard
		if err := w.Start(); err != nil {
			t.Fatal(err)
		}
		wc := w
		defer func() {
			wc.Process.Kill() //nolint:errcheck
			wc.Wait()         //nolint:errcheck
		}()
	}
	waitSmoke(t, "workers registered", func() bool {
		return smokeMetric(t, base, "equinox_fleet_workers") >= 3 // local-0 and both processes
	})

	// Keep the in-process executor busy for seconds with one long run, so
	// the sweep's units go to the worker processes; cancelled afterwards.
	occupier := JobSpec{Schemes: []string{"SingleBase"}, Benchmarks: []string{"kmeans"}, InstructionsPerPE: 20000}
	occ := smokeSubmit(t, base, occupier)
	waitSmoke(t, "executor busy", func() bool {
		return smokeMetric(t, base, "equinox_workers_busy") == 1
	})
	defer func() {
		req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+occ.ID, nil)
		if r, err := http.DefaultClient.Do(req); err == nil {
			r.Body.Close()
		}
	}()

	// Shard the smoke sweep and poll to completion.
	sub := smokeSubmit(t, base, shardSpec())

	var status JobStatus
	waitSmoke(t, "sharded job done", func() bool {
		r, err := http.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			return false
		}
		defer r.Body.Close()
		status = JobStatus{}
		if err := json.NewDecoder(r.Body).Decode(&status); err != nil {
			return false
		}
		return status.Status.Finished()
	})
	if status.Status != JobDone {
		t.Fatalf("job finished as %s: %s", status.Status, status.Error)
	}
	got, err := fleet.CanonicalResult(status.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("2-worker sharded result differs from the committed single-process golden\n--- sharded ---\n%s\n--- golden ---\n%s", got, golden)
	}
	if n := smokeMetric(t, base, "equinox_fleet_units_completed_total"); n != 4 {
		t.Errorf("units completed = %v, want 4", n)
	}

	// The units persisted: the store directory must hold them.
	entries, err := filepath.Glob(filepath.Join(storeDir, "objects", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 4 {
		t.Errorf("store dir holds %d entries, want >= 4 (units + sweep)", len(entries))
	}

	// The job's distributed span trace: one stitched trace with the
	// coordinator's spans and both workers' unit spans under one trace ID.
	// Set FLEET_SMOKE_SPANS to also write it out (CI uploads the artifact).
	r, err := http.Get(base + "/v1/jobs/" + sub.ID + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	spansRaw, err := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET /spans: %d: %s", r.StatusCode, spansRaw)
	}
	if p := os.Getenv("FLEET_SMOKE_SPANS"); p != "" {
		if err := os.WriteFile(p, spansRaw, 0o644); err != nil {
			t.Errorf("write span artifact: %v", err)
		}
	}
	var env struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData struct {
			TraceID string `json:"traceId"`
			Spans   int    `json:"spans"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(spansRaw, &env); err != nil {
		t.Fatalf("span trace is not well-formed trace-event JSON: %v", err)
	}
	if len(env.OtherData.TraceID) != 32 {
		t.Errorf("trace ID %q, want 32 hex chars", env.OtherData.TraceID)
	}
	nodes := map[string]bool{}
	var units, runs int
	for _, ev := range env.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				if n, _ := ev.Args["name"].(string); n != "" {
					nodes[n] = true
				}
			}
		case "X":
			if ev.Name == "" || ev.Dur < 1 {
				t.Errorf("malformed span event %+v", ev)
			}
			if strings.HasPrefix(ev.Name, "unit ") {
				units++
			}
			if strings.HasPrefix(ev.Name, "run ") {
				runs++
			}
		default:
			t.Errorf("unexpected trace-event phase %q", ev.Ph)
		}
	}
	for _, want := range []string{"coordinator", "smoke-0", "smoke-1"} {
		if !nodes[want] {
			t.Errorf("span trace is missing node %q (got %v)", want, nodes)
		}
	}
	if units != 4 {
		t.Errorf("unit spans = %d, want 4", units)
	}
	if runs < 4 {
		t.Errorf("worker run spans = %d, want >= 4 (one per unit, plus retries)", runs)
	}
}

// smokeSubmit posts spec and expects it accepted.
func smokeSubmit(t *testing.T, base string, spec JobSpec) SubmitResponse {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d (%+v)", resp.StatusCode, sub)
	}
	return sub
}

func waitSmoke(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Minute)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("fleet smoke: timed out waiting for %s", what)
}

// smokeMetric scrapes one un-labelled metric value from the server.
func smokeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == name {
			var v float64
			fmt.Sscanf(fields[1], "%g", &v) //nolint:errcheck
			return v
		}
	}
	return -1
}
