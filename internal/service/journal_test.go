package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"equinox/internal/fleet"
	"equinox/internal/fleet/store"
)

// openTestJournal opens a journal under dir with test cleanup.
func openTestJournal(t *testing.T, dir string) *Journal {
	t.Helper()
	j, err := OpenJournal(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// TestJournalReplayAndCompaction pins the journal's core contract:
// replay returns exactly the non-terminal jobs, and compaction-on-open
// rewrites the file down to just their submit records.
func TestJournalReplayAndCompaction(t *testing.T) {
	dir := t.TempDir()
	j1 := openTestJournal(t, dir)
	specA := json.RawMessage(`{"schemes":["SingleBase"]}`)
	j1.Submit("job-a", specA)
	j1.Unit("job-a", "unit-1", "leased")
	j1.Submit("job-b", json.RawMessage(`{"schemes":["EquiNox"]}`))
	j1.Submit("job-c", json.RawMessage(`{"schemes":["DoubleBase"]}`))
	j1.Terminal("job-b", JobDone)
	j1.Terminal("job-c", JobFailed)
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, dir)
	pending := j2.Pending()
	if len(pending) != 1 || pending[0].ID != "job-a" {
		t.Fatalf("pending after replay = %+v, want just job-a", pending)
	}
	if !bytes.Equal(pending[0].Spec, specA) {
		t.Fatalf("recovered spec = %s, want %s", pending[0].Spec, specA)
	}
	// Compaction left only job-a's submit record in the file.
	raw, err := os.ReadFile(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(bytes.TrimSpace(raw), []byte("\n")) + 1
	if lines != 1 || !bytes.Contains(raw, []byte("job-a")) || bytes.Contains(raw, []byte("job-b")) {
		t.Fatalf("compacted journal should hold one job-a record, got:\n%s", raw)
	}

	// Terminal after recovery: the next open finds nothing pending.
	j2.Terminal("job-a", JobDone)
	j2.Close()
	if p := openTestJournal(t, dir).Pending(); len(p) != 0 {
		t.Fatalf("pending after terminal = %+v, want none", p)
	}
}

// FuzzJournalReplay plants arbitrary bytes as journal.log. OpenJournal
// must accept them, every pending job must come from a submit record, and
// compaction must be a fixed point: reopening the compacted journal yields
// the same jobs with the same specs (re-encoded compactly, so compared as
// JSON values), and a second compaction changes nothing at all.
func FuzzJournalReplay(f *testing.F) {
	for _, seed := range []string{
		`{"op":"submit","id":"a","spec":{"schemes":["SingleBase"]},"t":"2026-01-01T00:00:00Z"}` + "\n" +
			`{"op":"terminal","id":"a","sta`,
		`{"op":"submit","id":"a","spec":{"width":4}}` + "\n" + `{"op":"rewind","id":"a"}` + "\n" +
			`{"op":"submit","id":"b","spec":{ "width" : 8 }}` + "\n" + `{"op":"terminal","id":"b","state":"done"}`,
		`{"op":"submit","id":"a"}` + "\n" + `{"op":"unit","id":"a","key":"u1","status":"leased"}` + "\n" +
			`{"op":"unit","id":"a","key":"u1","status":"completed"}` + "\n",
		"not json\n\n{}\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() []PendingJob {
			j, err := OpenJournal(dir, nil)
			if err != nil {
				t.Fatalf("OpenJournal: %v", err)
			}
			defer j.Close()
			return j.Pending()
		}
		first, second, third := open(), open(), open()

		submitted := map[string]bool{}
		for _, line := range bytes.Split(data, []byte("\n")) {
			var rec journalRecord
			if json.Unmarshal(line, &rec) == nil && rec.Op == "submit" {
				submitted[rec.ID] = true
			}
		}
		for _, p := range first {
			if !submitted[p.ID] {
				t.Fatalf("pending job %q has no submit record", p.ID)
			}
		}
		if len(second) != len(first) {
			t.Fatalf("compaction changed pending jobs: %d -> %d", len(first), len(second))
		}
		for i := range first {
			if second[i].ID != first[i].ID || !sameJSON(second[i].Spec, first[i].Spec) {
				t.Fatalf("pending[%d] = %q %s after compaction, want %q %s",
					i, second[i].ID, second[i].Spec, first[i].ID, first[i].Spec)
			}
		}
		if !reflect.DeepEqual(third, second) {
			t.Fatalf("compaction is not a fixed point:\n%+v\n%+v", second, third)
		}
	})
}

// sameJSON reports whether a and b are byte-equal or decode to equal
// values (numbers compared by their text).
func sameJSON(a, b json.RawMessage) bool {
	decode := func(raw json.RawMessage) (v any, err error) {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		err = dec.Decode(&v)
		return v, err
	}
	va, ea := decode(a)
	vb, eb := decode(b)
	return bytes.Equal(a, b) || (ea == nil && eb == nil && reflect.DeepEqual(va, vb))
}

// TestJournalTolerantsTruncatedTail simulates a crash mid-append: a
// half-written record (and arbitrary junk) must not poison replay of
// the intact records before it.
func TestJournalToleratesTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	j1 := openTestJournal(t, dir)
	j1.Submit("job-ok", json.RawMessage(`{"schemes":["SingleBase"]}`))
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A torn terminal record for job-ok — must be ignored, not applied.
	if _, err := f.WriteString(`{"op":"terminal","id":"job-ok","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	pending := openTestJournal(t, dir).Pending()
	if len(pending) != 1 || pending[0].ID != "job-ok" {
		t.Fatalf("pending after torn tail = %+v, want job-ok", pending)
	}
}

// TestServerRecoversJournaledJobs is the kill-and-restart guarantee: a
// server killed mid-job re-queues it from the journal on the next boot
// and converges to the byte-identical result a crash-free run produces.
func TestServerRecoversJournaledJobs(t *testing.T) {
	want := singleProcessCanonical(t, shardSpec())
	storeDir, journalDir := t.TempDir(), t.TempDir()

	// First process: accept the job, get it running, then die without
	// finishing (Shutdown with an expired context cancels in-flight work;
	// shutdown-cancelled jobs intentionally stay pending in the journal).
	disk1, err := store.OpenDisk(storeDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := OpenJournal(journalDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, Journal: j1, Store: disk1})
	ts1 := httptest.NewServer(s1.Handler())
	// Pin the only worker with a longer job so the target sweep is still
	// queued — guaranteed non-terminal — at the moment of the crash.
	occupier := smallSpec()
	occupier.InstructionsPerPE = 2000
	occ, code := submit(t, ts1, occupier)
	if code != http.StatusAccepted {
		t.Fatalf("occupier submit: %d", code)
	}
	waitFor(t, "occupier running before crash", func() bool {
		st, _ := getJob(t, ts1, occ.ID)
		return st.Status == JobRunning
	})
	sub, code := submit(t, ts1, shardSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	ts1.Close()
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	s1.Shutdown(expired) //nolint:errcheck
	j1.Close()
	disk1.Close()

	// Second process: same journal and store directories.
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
	found := false
	for _, p := range j2.Pending() {
		if p.ID == sub.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("journal pending after crash = %+v, missing %s", j2.Pending(), sub.ID)
	}
	_, ts2 := newTestServer(t, Config{Workers: 1, Journal: j2, Store: disk2})

	got := fetchResult(t, ts2, sub.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered result differs from crash-free run:\n--- recovered ---\n%s\n--- want ---\n%s", got, want)
	}
	m := getMetrics(t, ts2)
	if m["equinox_jobs_recovered_total"] < 1 {
		t.Errorf("jobs recovered = %d, want >= 1", m["equinox_jobs_recovered_total"])
	}

	// Third boot: the finished job is terminal in the journal — nothing
	// left to recover.
	j2.Close()
	if p := openTestJournal(t, journalDir).Pending(); len(p) != 0 {
		t.Fatalf("journal pending after recovery completed = %+v, want none", p)
	}
}

// submitRaw posts a spec and returns the raw response (for status codes
// and headers the SubmitResponse decoding helpers hide).
func submitRaw(t *testing.T, ts *httptest.Server, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestAdmissionShedsBatchBeforeInteractive pins graceful degradation
// under pressure on the coordinator's unit queue: batch submissions are
// shed with 429 + Retry-After once the queue passes the shed fraction,
// interactive ones are admitted until their units no longer fit, and both
// rejections are counted by class.
func TestAdmissionShedsBatchBeforeInteractive(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:      1,
		ShedFraction: 0.5, // batch shed once 2 of 4 slots are used
		Fleet:        fleet.Config{QueueDepth: 4},
	})

	// Occupy the only executor so everything after queues.
	running, _ := submit(t, ts, longSpec())
	waitFor(t, "occupier running", func() bool {
		st, _ := getJob(t, ts, running.ID)
		return st.Status == JobRunning
	})

	// distinct specs: vary the seed so every submission is a fresh job.
	spec := func(seed int64, prio string) JobSpec {
		sp := smallSpec()
		sp.Seed = seed
		sp.Priority = prio
		return sp
	}
	var ids []string
	for seed := int64(1); seed <= 2; seed++ {
		sub, code := submit(t, ts, spec(seed, "batch"))
		if code != http.StatusAccepted {
			t.Fatalf("batch fill %d: %d", seed, code)
		}
		ids = append(ids, sub.ID)
	}
	// Queue is at the shed limit: batch bounces, interactive still lands.
	resp := submitRaw(t, ts, spec(3, "batch"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch past shed limit: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After header")
	}
	for seed := int64(4); seed <= 5; seed++ {
		sub, code := submit(t, ts, spec(seed, "interactive"))
		if code != http.StatusAccepted {
			t.Fatalf("interactive fill %d: %d", seed, code)
		}
		ids = append(ids, sub.ID)
	}
	// Queue hard-full now: even interactive is rejected, with the hint.
	resp = submitRaw(t, ts, spec(6, "interactive"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("interactive on full queue: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("full-queue 429 carries no Retry-After header")
	}

	m := getMetrics(t, ts)
	if m[`equinox_admission_rejected_total{class="batch"}`] < 1 {
		t.Errorf("batch rejections = %d, want >= 1", m[`equinox_admission_rejected_total{class="batch"}`])
	}
	if m[`equinox_admission_rejected_total{class="interactive"}`] < 1 {
		t.Errorf("interactive rejections = %d, want >= 1", m[`equinox_admission_rejected_total{class="interactive"}`])
	}

	// Unwind quickly: cancel the queued jobs and the occupier.
	for _, id := range ids {
		cancelJob(t, ts, id)
	}
	cancelJob(t, ts, running.ID)
}
