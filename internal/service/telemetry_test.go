package service

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"equinox/internal/fleet"
	"equinox/internal/telemetry"
)

// getTelemetry fetches GET /v1/jobs/{id}/telemetry, decoding the summary
// array on 200.
func getTelemetry(t *testing.T, url, id string) ([]telemetry.RunSummary, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sums []telemetry.RunSummary
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sums); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
	}
	return sums, resp.StatusCode
}

// TestTelemetryLocalJobStreamsAndServes drives the local path end to end: a
// telemetry-flagged sweep streams one live "telemetry" SSE frame per run,
// embeds the summaries in the result document, serves them at
// GET /v1/jobs/{id}/telemetry, and exports the detector gauges.
func TestTelemetryLocalJobStreamsAndServes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := smallSpec()
	spec.Telemetry = true
	sub, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}

	events := readSSE(t, ts, sub.ID) // returns when the hub closes
	var frames int
	for _, e := range events {
		if e.name != "telemetry" {
			continue
		}
		frames++
		var sums []telemetry.RunSummary
		if err := json.Unmarshal(e.ev.Telemetry, &sums); err != nil {
			t.Fatalf("bad telemetry frame payload: %v", err)
		}
		if len(sums) != 1 || sums[0].Scheme != "SingleBase" || sums[0].Benchmark != "kmeans" {
			t.Errorf("telemetry frame carries %+v", sums)
		}
		if len(sums[0].Networks) == 0 || len(sums[0].Networks[0].Windows) == 0 {
			t.Error("telemetry frame has no windows")
		}
	}
	if frames != 1 {
		t.Errorf("telemetry frames = %d, want 1", frames)
	}

	// The result document embeds the same block the endpoint serves.
	st, _ := getJob(t, ts, sub.ID)
	if st.Status != JobDone {
		t.Fatalf("job finished as %s (%s)", st.Status, st.Error)
	}
	var doc struct {
		Telemetry []telemetry.RunSummary `json:"telemetry"`
	}
	if err := json.Unmarshal(st.Result, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Telemetry) != 1 {
		t.Fatalf("result document telemetry entries = %d, want 1", len(doc.Telemetry))
	}
	sums, code := getTelemetry(t, ts.URL, sub.ID)
	if code != http.StatusOK {
		t.Fatalf("telemetry endpoint: %d", code)
	}
	if len(sums) != 1 || len(sums[0].Networks) == 0 {
		t.Fatalf("telemetry artifact %+v", sums)
	}

	m := getMetrics(t, ts)
	if _, ok := m["equinox_sim_saturated"]; !ok {
		t.Error("equinox_sim_saturated gauge not exported")
	}
	if _, ok := m["equinox_sim_warmup_cycles"]; !ok {
		t.Error("equinox_sim_warmup_cycles gauge not exported")
	}
}

// TestTelemetryEndpointStatusCodes pins the artifact endpoint's error
// semantics: 404 for unknown jobs and jobs submitted without the flag.
func TestTelemetryEndpointStatusCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	if _, code := getTelemetry(t, ts.URL, "nosuchjob"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	sub, _ := submit(t, ts, smallSpec()) // telemetry off
	waitFor(t, "job done", func() bool {
		st, _ := getJob(t, ts, sub.ID)
		return st.Status.Finished()
	})
	if _, code := getTelemetry(t, ts.URL, sub.ID); code != http.StatusNotFound {
		t.Errorf("untelemetered job: %d, want 404", code)
	}
}

// TestTelemetrySharded covers the fleet path: workers ship each unit's
// summary back in CompleteRequest, the coordinator streams them as live
// "telemetry" frames, the assembled artifact holds every unit sorted like
// the runs, and the canonical result stays byte-identical to an
// uninstrumented single-process sweep.
func TestTelemetrySharded(t *testing.T) {
	want := singleProcessCanonical(t, shardSpec())

	s, ts := newTestServer(t, Config{Workers: 1})
	remoteOnly(t, s)
	startFleetWorkers(t, s, ts, 2)

	spec := shardSpec()
	spec.Telemetry = true
	sub, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	events := readSSE(t, ts, sub.ID)
	var frames int
	for _, e := range events {
		if e.name != "telemetry" {
			continue
		}
		frames++
		if e.ev.UnitKey == "" || e.ev.Scheme == "" || e.ev.Benchmark == "" {
			t.Errorf("telemetry frame missing unit identity: %+v", e.ev)
		}
		var sums []telemetry.RunSummary
		if err := json.Unmarshal(e.ev.Telemetry, &sums); err != nil || len(sums) != 1 {
			t.Errorf("telemetry frame payload (err=%v): %s", err, e.ev.Telemetry)
		}
	}
	if frames != 4 {
		t.Errorf("telemetry frames = %d, want 4 (one per unit)", frames)
	}

	sums, code := getTelemetry(t, ts.URL, sub.ID)
	if code != http.StatusOK {
		t.Fatalf("telemetry endpoint: %d", code)
	}
	if len(sums) != 4 {
		t.Fatalf("assembled telemetry entries = %d, want 4", len(sums))
	}
	for i := 1; i < len(sums); i++ {
		a, b := sums[i-1], sums[i]
		if a.Scheme > b.Scheme || (a.Scheme == b.Scheme && a.Benchmark > b.Benchmark) {
			t.Errorf("telemetry artifact unsorted at %d: %s/%s after %s/%s",
				i, b.Scheme, b.Benchmark, a.Scheme, a.Benchmark)
		}
	}

	// Telemetry is observational: the canonical result (which strips it)
	// must match a plain single-process sweep byte for byte.
	got := fetchResult(t, ts, sub.ID)
	if string(got) != string(want) {
		t.Fatalf("telemetry-instrumented sharded result differs from plain single-process run:\n%s\n---\n%s", got, want)
	}
}

// TestEventHubReplayBounded pins the hub's replay-history bound and slow-
// subscriber behavior: a late subscriber replays at most maxEventHistory
// events (the newest ones), live frames continue without duplication, and a
// subscriber that stops draining is dropped (its channel closed) rather
// than wedging the publisher — no goroutine is parked on its behalf.
func TestEventHubReplayBounded(t *testing.T) {
	hub := newEventHub()
	total := maxEventHistory + 500
	for i := 0; i < total; i++ {
		hub.publish(fleet.Event{Type: "telemetry", Done: i, Total: total})
	}

	history, live := hub.subscribe()
	if live == nil {
		t.Fatal("hub closed prematurely")
	}
	defer hub.unsubscribe(live)
	if len(history) != maxEventHistory {
		t.Fatalf("replay length %d, want bound %d", len(history), maxEventHistory)
	}
	var first fleet.Event
	if err := json.Unmarshal(history[0].data, &first); err != nil {
		t.Fatal(err)
	}
	if first.Done != total-maxEventHistory {
		t.Errorf("replay starts at event %d, want %d (oldest rolled off)", first.Done, total-maxEventHistory)
	}

	// Live frames continue from where the history ended, no duplicates.
	for i := 0; i < 10; i++ {
		hub.publish(fleet.Event{Type: "telemetry", Done: total + i, Total: total})
	}
	for i := 0; i < 10; i++ {
		e, open := <-live
		if !open {
			t.Fatal("live channel closed early")
		}
		var ev fleet.Event
		if err := json.Unmarshal(e.data, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Done != total+i {
			t.Fatalf("live event %d carries Done=%d, want %d (duplicate or gap)", i, ev.Done, total+i)
		}
	}

	// A subscriber that stops draining is dropped once it falls a full
	// channel buffer behind; the publisher and other subscribers carry on.
	_, slow := hub.subscribe()
	if slow == nil {
		t.Fatal("hub closed prematurely")
	}
	for i := 0; i < cap(slow)+50; i++ {
		hub.publish(fleet.Event{Type: "telemetry", Done: i})
	}
	drained := 0
	for range slow { // closed by the drop, not by us
		drained++
	}
	if drained != cap(slow) {
		t.Errorf("slow subscriber drained %d events, want exactly its buffer %d", drained, cap(slow))
	}

	hub.close()
	if _, open := <-live; open {
		// Buffered events may remain; drain to the close.
		for range live {
		}
	}
	if _, l := hub.subscribe(); l != nil {
		t.Error("subscribe after close returned a live channel")
	}
}

// TestSSELateSubscriberAfterClose: an HTTP subscriber arriving after the
// job finished replays the bounded history — ending with the terminal
// event — and the handler returns instead of holding the connection.
func TestSSELateSubscriberAfterClose(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := smallSpec()
	spec.Telemetry = true
	sub, _ := submit(t, ts, spec)
	waitFor(t, "job done", func() bool {
		st, _ := getJob(t, ts, sub.ID)
		return st.Status.Finished()
	})
	for i := 0; i < 3; i++ { // readSSE returns only if the handler does
		events := readSSE(t, ts, sub.ID)
		if len(events) == 0 {
			t.Fatal("late subscriber got no replay")
		}
		last := events[len(events)-1]
		if last.name != "job" {
			t.Fatalf("replay %d does not end with the terminal event: %+v", i, last)
		}
		var sawTelemetry bool
		for _, e := range events {
			if e.name == "telemetry" {
				sawTelemetry = true
			}
		}
		if !sawTelemetry {
			t.Errorf("replay %d carries no telemetry frame", i)
		}
	}
}
