package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"equinox/internal/fleet"
)

// jobRecord fetches the live job record.
func jobRecord(t *testing.T, s *Server, id string) *job {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		t.Fatalf("no job record for %s", id)
	}
	return j
}

// submitRunning submits the slow sweep and waits until an executor runs
// its first unit; the rest stay queued behind it.
func submitRunning(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	sub, code := submit(t, ts, slowSpec())
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	waitFor(t, "job running", func() bool {
		st, _ := getJob(t, ts, sub.ID)
		return st.Status == JobRunning
	})
	return sub.ID
}

// journalTerminals scans the journal file for a job's terminal records.
func journalTerminals(t *testing.T, dir, id string) []string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var states []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad journal line %q: %v", sc.Text(), err)
		}
		if rec.Op == "terminal" && rec.ID == id {
			states = append(states, rec.State)
		}
	}
	return states
}

// TestJobTerminalEdges drives every terminal edge of the job state machine
// and checks the terminal sequence ran exactly once on each: one counter
// moved by one, one terminal SSE frame and then a closed stream, a finish
// time, the journal record (or, for the shutdown-cancel, its deliberate
// absence), and a refused second settle.
func TestJobTerminalEdges(t *testing.T) {
	cases := []struct {
		name      string
		want      JobState
		unstarted bool // the job ended before any worker ran it
		pending   bool // still pending in the journal afterwards
		// drive brings one job to its terminal state and returns its id.
		drive func(t *testing.T, s *Server, ts *httptest.Server) string
	}{
		{name: "done/local", want: JobDone,
			drive: func(t *testing.T, s *Server, ts *httptest.Server) string {
				sub, _ := submit(t, ts, smallSpec())
				return sub.ID
			}},
		{name: "done/sharded", want: JobDone,
			drive: func(t *testing.T, s *Server, ts *httptest.Server) string {
				startFleetWorkers(t, s, ts, 2)
				sub, _ := submit(t, ts, shardSpec())
				return sub.ID
			}},
		{name: "failed/unit", want: JobFailed,
			// A one-unit job's document is its unit's, so a failed unit fails
			// the job — on its first attempt: a design that cannot be built
			// is a permanent error, not retried.
			drive: func(t *testing.T, s *Server, ts *httptest.Server) string {
				sub, code := submit(t, ts, unrunnableSpec())
				if code != http.StatusAccepted {
					t.Fatalf("submit: %d", code)
				}
				waitFor(t, "job failed", func() bool {
					st, _ := getJob(t, ts, sub.ID)
					return st.Status.Finished()
				})
				if n := getMetrics(t, ts)["equinox_fleet_units_retried_total"]; n != 0 {
					t.Errorf("units retried = %d, want 0", n)
				}
				return sub.ID
			}},
		{name: "failed/OnDone", want: JobFailed,
			// An exhausted unit folds into a done document's error list;
			// only an assembly failure reaches OnDone(nil, err). Complete
			// refuses unparsable documents, so the one way left is a bad
			// entry already in the store (an older process wrote it): plant
			// one under every unit's key and let the cache hits assemble.
			drive: func(t *testing.T, s *Server, ts *httptest.Server) string {
				canon, err := shardSpec().Canonicalize()
				if err != nil {
					t.Fatal(err)
				}
				units, err := unitsFor("", canon)
				if err != nil {
					t.Fatal(err)
				}
				for _, u := range units {
					s.store.Put(u.Key, []byte("not json"))
				}
				sub, _ := submit(t, ts, shardSpec())
				if sub.Status != JobFailed {
					t.Fatalf("a sweep the store answered in full is %s at submission, want failed", sub.Status)
				}
				return sub.ID
			}},
		{name: "cancelled/DELETE-queued", want: JobCancelled, unstarted: true,
			drive: func(t *testing.T, s *Server, ts *httptest.Server) string {
				submitRunning(t, ts) // occupies the only worker
				sub, _ := submit(t, ts, smallSpec())
				if st, code := cancelJob(t, ts, sub.ID); code != http.StatusOK || st.Status != JobCancelled {
					t.Fatalf("cancel: %d %+v", code, st)
				}
				return sub.ID
			}},
		{name: "cancelled/DELETE-running", want: JobCancelled,
			drive: func(t *testing.T, s *Server, ts *httptest.Server) string {
				id := submitRunning(t, ts)
				if st, code := cancelJob(t, ts, id); code != http.StatusOK || st.Status != JobCancelled {
					t.Fatalf("cancel: %d %+v", code, st)
				}
				return id
			}},
		{name: "cancelled/shutdown", want: JobCancelled, pending: true,
			// A multi-unit job: units running on the executor and a remote
			// worker, the rest queued behind them.
			drive: func(t *testing.T, s *Server, ts *httptest.Server) string {
				startFleetWorkers(t, s, ts, 1)
				id := submitRunning(t, ts)
				shutdownExpired(t, s)
				return id
			}},
		{name: "cancelled/shutdown-queued", want: JobCancelled, unstarted: true, pending: true,
			drive: func(t *testing.T, s *Server, ts *httptest.Server) string {
				occupyExecutor(t, s, ts)
				sub, _ := submit(t, ts, smallSpec())
				shutdownExpired(t, s)
				return sub.ID
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jr := openTestJournal(t, dir)
			s, ts := newTestServer(t, Config{Workers: 1, Journal: jr})

			id := tc.drive(t, s, ts)
			events := readSSE(t, ts, id) // returns only once the hub closes
			if !tc.unstarted {
				// The edge's loser (the run unwinding after a DELETE or an
				// injected failure) must have had its say before counting.
				// (In the queued case a bystander holds the worker instead.)
				waitFor(t, "worker release", func() bool {
					return getMetrics(t, ts)["equinox_workers_busy"] == 0
				})
			}

			st, code := getJob(t, ts, id)
			if code != http.StatusOK || st.Status != tc.want {
				t.Fatalf("job ended %d %+v, want %s", code, st, tc.want)
			}
			if st.FinishedAt == nil {
				t.Fatal("finishedAt not set")
			}
			if (st.StartedAt == nil) != tc.unstarted {
				t.Errorf("startedAt = %v, want unstarted=%v", st.StartedAt, tc.unstarted)
			}
			if (tc.want == JobFailed) != (st.Error != "") {
				t.Errorf("error = %q on a %s job", st.Error, tc.want)
			}

			counters := func() map[JobState]int64 {
				m := getMetrics(t, ts)
				return map[JobState]int64{
					JobDone:      m["equinox_jobs_completed_total"],
					JobFailed:    m["equinox_jobs_failed_total"],
					JobCancelled: m["equinox_jobs_cancelled_total"],
				}
			}
			before := counters()
			for _, state := range []JobState{JobDone, JobFailed, JobCancelled} {
				want := int64(0)
				if state == tc.want {
					want = 1
				}
				if before[state] != want {
					t.Errorf("%s counter = %d, want %d", state, before[state], want)
				}
			}

			var terminal int
			for _, e := range events {
				if e.name == "job" {
					terminal++
				}
			}
			last := events[len(events)-1]
			if terminal != 1 || last.name != "job" || last.ev.Status != string(tc.want) {
				t.Errorf("stream must end with exactly one %s job frame, got %d (last %+v)", tc.want, terminal, last)
			}

			terms := journalTerminals(t, dir, id)
			if tc.pending {
				if len(terms) != 0 {
					t.Errorf("shutdown-cancel journaled %v; the job must stay pending", terms)
				}
			} else if len(terms) != 1 || terms[0] != string(tc.want) {
				t.Errorf("journal terminal records = %v, want [%s]", terms, tc.want)
			}

			// A second ending finds no edge and changes nothing.
			j := jobRecord(t, s, id)
			for _, to := range []JobState{JobDone, JobFailed, JobCancelled} {
				if s.settle(j, to, outcome{err: errors.New("late"), result: []byte("{}")}) {
					t.Errorf("second settle(%s) on a %s job succeeded", to, tc.want)
				}
			}
			if again, _ := getJob(t, ts, id); again.Status != st.Status || again.Error != st.Error ||
				!again.FinishedAt.Equal(*st.FinishedAt) {
				t.Errorf("second settle changed the job: %+v → %+v", st, again)
			}
			if after := counters(); after[JobDone] != before[JobDone] ||
				after[JobFailed] != before[JobFailed] || after[JobCancelled] != before[JobCancelled] {
				t.Errorf("second settle moved a counter: %v → %v", before, after)
			}
			if replay := readSSE(t, ts, id); len(replay) != len(events) {
				t.Errorf("second settle published: %d events → %d", len(events), len(replay))
			}
			if got := journalTerminals(t, dir, id); len(got) != len(terms) {
				t.Errorf("second settle journaled: %v → %v", terms, got)
			}

			// What a restart would see: only the shutdown-cancel recovers.
			if err := jr.Close(); err != nil {
				t.Fatal(err)
			}
			var pending bool
			for _, p := range openTestJournal(t, dir).Pending() {
				pending = pending || p.ID == id
			}
			if pending != tc.pending {
				t.Errorf("pending in journal after the edge = %v, want %v", pending, tc.pending)
			}
		})
	}
}

// TestCancelBeforeUnitsRegistered: a DELETE (or the shutdown deadline)
// that settles a job after dispatch released the server lock but before
// the coordinator registered its units leaves no units behind, and the
// same spec can be submitted again at once.
func TestCancelBeforeUnitsRegistered(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	occupyExecutor(t, s, ts) // the unit would otherwise run at once
	canon, err := smallSpec().Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := keyOf(canon)
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	j := s.newJobLocked(key, canon, "")
	s.mu.Unlock()
	// The DELETE lands first: it settles the job, and its CancelJob finds
	// no units yet.
	if !s.settle(j, JobCancelled, outcome{noSpans: true}) {
		t.Fatal("settle refused the queued job")
	}
	s.coord.CancelJob(key)
	s.mu.Lock()
	if _, err := s.dispatch(j, false); err != nil {
		t.Fatal(err)
	}
	if n := s.coord.UnitsPending(); n != 0 {
		t.Errorf("units pending = %d, want 0: the ended job's unit is still queued", n)
	}
	if _, code := submit(t, ts, smallSpec()); code != http.StatusAccepted {
		t.Errorf("resubmitting the cancelled spec: %d, want 202", code)
	}
}

// TestRejectedSubmissionNotCounted: a submission whose units the
// coordinator's queue cannot hold was never accepted: it answers 429 and is
// not counted as submitted or as a cache miss, nor registered.
func TestRejectedSubmissionNotCounted(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Fleet:   fleet.Config{QueueDepth: 1}, // a 4-unit sweep never fits
	})
	before := getMetrics(t, ts)
	resp := submitRaw(t, ts, shardSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("sweep on a full unit queue: %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After header")
	}
	after := getMetrics(t, ts)
	for _, name := range []string{"equinox_jobs_submitted_total", "equinox_cache_misses_total"} {
		if after[name] != before[name] {
			t.Errorf("%s moved %d → %d on a rejected submission", name, before[name], after[name])
		}
	}
	key, err := shardSpec().Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, code := getJob(t, ts, key); code != http.StatusNotFound {
		t.Errorf("rejected job still registered: GET %d", code)
	}
	if sub, code := submit(t, ts, smallSpec()); code != http.StatusAccepted {
		t.Errorf("a one-unit job after the rejection: %d %+v, want 202", code, sub)
	}
}

// occupyExecutor keeps the only executor busy with a unit submitted to the
// coordinator directly, so no job record (and no job counter) comes of it.
func occupyExecutor(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	canon, err := longSpec().Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	units, err := unitsFor("occupier", canon)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.coord.SubmitJob("occupier", fleet.Batch, units, fleet.JobCallbacks{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "executor busy", func() bool {
		return getMetrics(t, ts)["equinox_workers_busy"] == 1
	})
}

// shutdownExpired shuts s down with a deadline that expires first.
func shutdownExpired(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Error("shutdown returned nil despite expiring deadline")
	}
}

// unrunnableSpec canonicalizes but cannot run: no N-Queen placement of two
// cache banks exists on a 2×2 mesh, so building its EquiNox design fails.
func unrunnableSpec() JobSpec {
	return JobSpec{
		Width: 2, Height: 2, NumCBs: 2,
		Schemes:           []string{"EquiNox"},
		Benchmarks:        []string{"kmeans"},
		InstructionsPerPE: 10,
	}
}
