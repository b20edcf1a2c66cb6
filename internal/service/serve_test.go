package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"equinox/internal/fleet"
	"equinox/internal/fleet/store"
	"equinox/internal/obs"
)

// equinoxSpec is smallSpec on EquiNox, whose result document carries an
// exported design: the largest single-run document.
func equinoxSpec() JobSpec {
	spec := smallSpec()
	spec.Schemes = []string{"EquiNox"}
	return spec
}

// checkServed fetches GET /v1/jobs/{id} and checks the serving contract:
// the "result" member is the stored entry byte for byte, that entry is
// already compact, its canonical form is want, and the other fields decode
// to header.
func checkServed(t *testing.T, how string, s *Server, ts *httptest.Server, id string, header JobStatus, want []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("%s: GET %d %q: %s", how, resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("%s: body is not JSON: %v\n%s", how, err, body)
	}
	stored, ok := s.store.Get(id)
	if !ok {
		t.Fatalf("%s: no stored result", how)
	}
	if !bytes.Equal(st.Result, stored) {
		t.Fatalf("%s: served result differs from the stored bytes:\n%s\n---\n%s", how, st.Result, stored)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, stored); err != nil || !bytes.Equal(compact.Bytes(), stored) {
		t.Fatalf("%s: stored entry is not compact JSON (err=%v)", how, err)
	}
	canon, err := fleet.CanonicalResult(st.Result)
	if err != nil || !bytes.Equal(canon, want) {
		t.Fatalf("%s: canonical served result differs from a direct RunSpec (err=%v)", how, err)
	}
	st.Result = nil
	got, _ := json.Marshal(st)          // plain struct
	wantHead, _ := json.Marshal(header) // plain struct
	if !bytes.Equal(got, wantHead) {
		t.Fatalf("%s: status fields\n%s\nwant\n%s", how, got, wantHead)
	}
}

// TestGetServesStoredBytes pins how GET /v1/jobs/{id} serves a result: on
// a cold job, on a cache-hit resubmit and after a restart on the same disk
// store (no job record survives; the store path answers), the result is the
// stored compact document spliced in as it is, and it is the same run a
// direct RunSpec computes.
func TestGetServesStoredBytes(t *testing.T) {
	spec := equinoxSpec()
	want := singleProcessCanonical(t, spec)

	dir := t.TempDir()
	disk, err := store.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Workers: 1, Store: disk})
	ts1 := httptest.NewServer(s1.Handler())
	sub, code := submit(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitFor(t, "job done", func() bool {
		st, _ := getJob(t, ts1, sub.ID)
		return st.Status.Finished()
	})
	record := func() JobStatus {
		j := jobRecord(t, s1, sub.ID)
		s1.mu.Lock()
		defer s1.mu.Unlock()
		return j.status()
	}
	checkServed(t, "cold", s1, ts1, sub.ID, record(), want)

	if again, code := submit(t, ts1, spec); code != http.StatusOK || !again.Cached {
		t.Fatalf("resubmit: %d %+v, want a cache hit", code, again)
	}
	checkServed(t, "cache hit", s1, ts1, sub.ID, record(), want)

	ts1.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	disk2, err := store.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk2.Close()
	s2, ts2 := newTestServer(t, Config{Workers: 1, Store: disk2})
	checkServed(t, "restart", s2, ts2, sub.ID, JobStatus{ID: sub.ID, Status: JobDone}, want)
}

// TestWriteJSONRendersBeforeStatus: a value that cannot be marshalled is
// answered with a 500 and an error body, not a 200 with an empty one.
func TestWriteJSONRendersBeforeStatus(t *testing.T) {
	rec := httptest.NewRecorder()
	obs.WriteJSON(rec, http.StatusOK, JobStatus{ID: "x", Status: JobDone, Result: json.RawMessage("{")})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["error"] == "" {
		t.Fatalf("body %q (err=%v), want an error message", rec.Body.Bytes(), err)
	}
}

// BenchmarkGetDoneJob measures GET /v1/jobs/{id} of a finished EquiNox job
// at the handler, middleware included and no network: the status lookup,
// rendering and the body copy a warm client pays on every poll.
func BenchmarkGetDoneJob(b *testing.B) {
	s := New(Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // the job finished before timing
	}()
	h := s.Handler()
	raw, err := json.Marshal(equinoxSpec())
	if err != nil {
		b.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(raw)))
	var sub SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		b.Fatalf("submit: %d %s", rec.Code, rec.Body.Bytes())
	}
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+sub.ID, nil))
		return rec
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		var st JobStatus
		if err := json.Unmarshal(get().Body.Bytes(), &st); err == nil && st.Status.Finished() {
			if st.Status != JobDone {
				b.Fatalf("job ended %s: %s", st.Status, st.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("job did not finish")
		}
	}
	body := get().Body.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := get(); rec.Code != http.StatusOK {
			b.Fatalf("GET: %d", rec.Code)
		}
	}
	b.ReportMetric(float64(body), "body-B")
}
