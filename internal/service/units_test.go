package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"equinox/internal/obs"
)

// unitCount reads how many units the coordinator finished: run, or
// answered from the store.
func unitCount(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	m := getMetrics(t, ts)
	return m["equinox_fleet_units_completed_total"] + m["equinox_fleet_unit_cache_hits_total"]
}

// TestEveryJobRunsAsUnits pins the one execution path: whatever its shape,
// flags or origin, a job streams unit events (and no "progress" frames),
// finishes exactly Runs() units, serves the canonical document a direct
// RunSpec computes, and keeps its "phases" — summed per phase across units.
func TestEveryJobRunsAsUnits(t *testing.T) {
	traced := shardSpec()
	traced.Trace = true
	telemetered := smallSpec()
	telemetered.Telemetry = true
	interactive := chaosSpec()
	interactive.Priority = "interactive"
	recovered := smallSpec()
	recovered.Seed = 11

	cases := []struct {
		name    string
		spec    JobSpec
		journal bool // submitted by a previous process, replayed from its journal
	}{
		{"single-run", smallSpec(), false},
		{"multi-run", shardSpec(), false},
		{"traced", traced, false},
		{"telemetry", telemetered, false},
		{"interactive", interactive, false},
		{"journal-recovered", recovered, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			canon, err := tc.spec.Canonicalize()
			if err != nil {
				t.Fatal(err)
			}
			id, err := keyOf(canon)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Workers: 2}
			if tc.journal {
				dir := t.TempDir()
				prev := openTestJournal(t, dir)
				raw, err := json.Marshal(canon)
				if err != nil {
					t.Fatal(err)
				}
				prev.Submit(id, raw)
				if err := prev.Close(); err != nil {
					t.Fatal(err)
				}
				cfg.Journal = openTestJournal(t, dir)
			}
			_, ts := newTestServer(t, cfg)
			// A replayed job starts as the server does and may finish before
			// a first read of the counters; the server's own counters start
			// at zero, so that is its baseline.
			var before int64
			if !tc.journal {
				before = unitCount(t, ts)
				sub, code := submit(t, ts, tc.spec)
				if code != http.StatusAccepted || sub.ID != id {
					t.Fatalf("submit: %d %+v", code, sub)
				}
			}

			var units int
			for _, e := range readSSE(t, ts, id) {
				switch e.name {
				case "unit", "cache":
					units++
				case "progress":
					t.Errorf("a progress frame: %+v", e.ev)
				}
			}
			if units == 0 {
				t.Error("the stream carries no unit events")
			}
			if got := unitCount(t, ts) - before; got != int64(canon.Runs()) {
				t.Errorf("units completed or answered from the store = %d, want Runs() = %d", got, canon.Runs())
			}

			got := fetchResult(t, ts, id)
			if want := singleProcessCanonical(t, tc.spec); !bytes.Equal(got, want) {
				t.Errorf("served result differs from a direct RunSpec:\n%s\n---\n%s", got, want)
			}
			st, _ := getJob(t, ts, id)
			var doc struct {
				Phases []obs.Phase     `json:"phases"`
				Flight json.RawMessage `json:"flight"`
			}
			if err := json.Unmarshal(st.Result, &doc); err != nil {
				t.Fatal(err)
			}
			var sims int64
			for _, p := range doc.Phases {
				if p.Name == "sim" {
					sims = p.Count
				}
			}
			if sims != int64(canon.Runs()) {
				t.Errorf("phases %+v: sim count %d, want one per run (%d)", doc.Phases, sims, canon.Runs())
			}
			if doc.Flight != nil {
				t.Error("the result document carries the flight artifact")
			}
			if tc.spec.Trace {
				resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/trace")
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("GET trace: %d, want 200", resp.StatusCode)
				}
			}
		})
	}
}

// TestTracedCellRerunsWhenStored: a traced job whose traced cell an earlier
// traced job already stored still gets its flight artifact — that unit
// runs again rather than being answered from the store.
func TestTracedCellRerunsWhenStored(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	first := shardSpec()
	first.Trace = true
	sub, _ := submit(t, ts, first)
	fetchResult(t, ts, sub.ID)

	wider := first
	wider.Benchmarks = append([]string{"hotspot"}, first.Benchmarks...) // first cell still SingleBase/bfs
	before := getMetrics(t, ts)
	sub, _ = submit(t, ts, wider)
	fetchResult(t, ts, sub.ID)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace of the second traced job: %d, want 200", resp.StatusCode)
	}
	after := getMetrics(t, ts)
	const hits = "equinox_fleet_unit_cache_hits_total"
	if got := after[hits] - before[hits]; got != 3 {
		t.Errorf("unit cache hits = %d, want 3 (every stored cell but the traced one)", got)
	}
	units, err := unitsFor(sub.ID, mustCanon(t, wider))
	if err != nil {
		t.Fatal(err)
	}
	if !units[0].Rerun || units[1].Rerun {
		t.Errorf("Rerun = %v, %v; want only the traced first unit", units[0].Rerun, units[1].Rerun)
	}
	var traced int
	for _, u := range units {
		var us JobSpec
		if err := json.Unmarshal(u.Spec, &us); err != nil {
			t.Fatal(err)
		}
		if us.Trace {
			traced++
		}
	}
	if traced != 1 {
		t.Errorf("%d traced unit specs, want 1", traced)
	}
}

func mustCanon(t *testing.T, spec JobSpec) JobSpec {
	t.Helper()
	canon, err := spec.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	return canon
}
