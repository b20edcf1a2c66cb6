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
	"slices"
	"strings"
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

// TestJournalReplayAndCompaction pins the journal's core contract: a
// reopen returns exactly the non-terminal jobs, with their specs.
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
		t.Fatalf("pending after reopen = %+v, want just job-a", pending)
	}
	if !bytes.Equal(pending[0].Spec, specA) {
		t.Fatalf("recovered spec = %s, want %s", pending[0].Spec, specA)
	}

	// Terminal after recovery: the next open finds nothing pending.
	j2.Terminal("job-a", JobDone)
	j2.Close()
	if p := openTestJournal(t, dir).Pending(); len(p) != 0 {
		t.Fatalf("pending after terminal = %+v, want none", p)
	}
}

// Job ids in the legacy-log tests: import takes only job keys.
var (
	legacyA = strings.Repeat("a1", 32)
	legacyB = strings.Repeat("b2", 32)
)

// TestJournalImportsLegacyLog: a journal.log an older version left behind
// is imported once — its submits minus its terminals, with the spec bytes
// as written — and renamed, so a second open imports nothing new. Unit
// records, foreign ops and a record torn by a crash mid-append are skipped.
func TestJournalImportsLegacyLog(t *testing.T) {
	dir := t.TempDir()
	specA := `{ "schemes" : ["SingleBase"], "width":4 }`
	legacy := `{"op":"submit","id":"` + legacyA + `","spec":` + specA + `,"t":"2026-01-01T00:00:00Z"}` + "\n" +
		`{"op":"unit","id":"` + legacyA + `","key":"u1","status":"leased","t":"2026-01-01T00:00:01Z"}` + "\n" +
		`{"op":"submit","id":"` + legacyB + `","spec":{"schemes":["EquiNox"]},"t":"2026-01-01T00:00:02Z"}` + "\n" +
		`{"op":"rewind","id":"` + legacyB + `"}` + "\n" +
		`{"op":"unit","id":"` + legacyB + `","key":"u2","status":"completed","t":"2026-01-01T00:00:03Z"}` + "\n" +
		`{"op":"terminal","id":"` + legacyB + `","state":"done","t":"2026-01-01T00:00:04Z"}` + "\n" +
		`{"op":"terminal","id":"` + legacyA + `","sta`
	logPath := filepath.Join(dir, legacyJournal)
	if err := os.WriteFile(logPath, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}

	want := []PendingJob{{ID: legacyA, Spec: json.RawMessage(specA)}}
	if got := openTestJournal(t, dir).Pending(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pending after import = %+v, want %+v", got, want)
	}
	if _, err := os.Stat(logPath); !os.IsNotExist(err) {
		t.Fatalf("journal.log still present after import (stat: %v)", err)
	}
	if raw, err := os.ReadFile(logPath + ".imported"); err != nil || string(raw) != legacy {
		t.Fatalf("imported log = %q (%v), want the original bytes", raw, err)
	}

	j := openTestJournal(t, dir)
	if got := j.Pending(); !reflect.DeepEqual(got, want) {
		t.Fatalf("pending on the second open = %+v, want %+v", got, want)
	}
	j.Terminal(legacyA, JobDone)
	if p := openTestJournal(t, dir).Pending(); len(p) != 0 {
		t.Fatalf("pending after terminal = %+v, want none", p)
	}
}

// FuzzJournalReplay plants arbitrary bytes as a legacy journal.log.
// OpenJournal must accept them, every pending job must carry the id and
// the exact spec bytes of a submit record, and the import must run once:
// a reopen returns the same pending jobs.
func FuzzJournalReplay(f *testing.F) {
	for _, seed := range []string{
		`{"op":"submit","id":"` + legacyA + `","spec":{"schemes":["SingleBase"]},"t":"2026-01-01T00:00:00Z"}` + "\n" +
			`{"op":"terminal","id":"` + legacyA + `","sta`,
		`{"op":"submit","id":"` + legacyA + `","spec":{"width":4}}` + "\n" + `{"op":"rewind","id":"` + legacyA + `"}` + "\n" +
			`{"op":"submit","id":"` + legacyB + `","spec":{ "width" : 8 }}` + "\n" + `{"op":"terminal","id":"` + legacyB + `","state":"done"}`,
		`{"op":"submit","id":"` + legacyA + `"}` + "\n" + `{"op":"unit","id":"` + legacyA + `","key":"u1","status":"leased"}` + "\n" +
			`{"op":"unit","id":"` + legacyA + `","key":"u1","status":"completed"}` + "\n",
		"not json\n\n{}\n",
		`{"op":"submit","id":"../` + legacyA[3:] + `","spec":{}}` + "\n" + `{"op":"submit","id":"","spec":{}}` + "\n" +
			`{"op":"submit","id":"aa","spec":{}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, legacyJournal), data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() []PendingJob {
			j, err := OpenJournal(dir, nil)
			if err != nil {
				t.Fatalf("OpenJournal: %v", err)
			}
			return j.Pending()
		}
		first, second := open(), open()

		submitted := map[string][]json.RawMessage{}
		for _, line := range bytes.Split(data, []byte("\n")) {
			var rec struct {
				Op, ID string
				Spec   json.RawMessage
			}
			if json.Unmarshal(line, &rec) == nil && rec.Op == "submit" {
				submitted[rec.ID] = append(submitted[rec.ID], rec.Spec)
			}
		}
		for _, p := range first {
			if !slices.ContainsFunc(submitted[p.ID], func(spec json.RawMessage) bool { return bytes.Equal(spec, p.Spec) }) {
				t.Fatalf("pending job %q %q matches no submit record", p.ID, p.Spec)
			}
		}
		if !reflect.DeepEqual(second, first) {
			t.Fatalf("reopen changed the pending jobs:\n%+v\n%+v", first, second)
		}
	})
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

// TestJournalSharesStoreDir: one directory may hold both the result store
// and the journal, which keeps its objects under pending/. A finished job's
// terminal state leaves its stored result alone, and after a restart the
// journal recovers none of the store's entries and the result is still
// served.
func TestJournalSharesStoreDir(t *testing.T) {
	dir := t.TempDir()
	boot := func() (*httptest.Server, *Journal) {
		disk, err := store.OpenDisk(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		j := openTestJournal(t, dir)
		_, ts := newTestServer(t, Config{Workers: 1, Journal: j, Store: disk})
		return ts, j
	}

	ts1, _ := boot()
	sub, code := submit(t, ts1, smallSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	want := fetchResult(t, ts1, sub.ID)
	ts1.Close()

	ts2, j2 := boot()
	if p := j2.Pending(); len(p) != 0 {
		t.Fatalf("journal pending after restart = %+v, want none", p)
	}
	if st, code := getJob(t, ts2, sub.ID); code != http.StatusOK || st.Status != JobDone {
		t.Fatalf("job after restart: %d %s, want 200 done", code, st.Status)
	}
	if got := fetchResult(t, ts2, sub.ID); !bytes.Equal(got, want) {
		t.Fatalf("result after restart differs:\n%s\nwant:\n%s", got, want)
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
