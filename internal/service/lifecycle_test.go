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

// submitRunning submits the slow sweep and waits until a worker runs it.
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
				if sub.Status != JobRunning {
					t.Fatalf("sweep was not sharded: %+v", sub)
				}
				return sub.ID
			}},
		{name: "failed/finish", want: JobFailed,
			// A canonicalized spec cannot fail a local run, so fail it from
			// inside: the worker's real run then loses the race.
			drive: func(t *testing.T, s *Server, ts *httptest.Server) string {
				id := submitRunning(t, ts)
				j := jobRecord(t, s, id)
				s.finish(j, nil, errors.New("boom"))
				j.cancel()
				return id
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
				s.coord.Lease("fake-worker") // registers: the fleet is alive
				sub, _ := submit(t, ts, shardSpec())
				if sub.Status != JobRunning {
					t.Fatalf("sweep was not sharded: %+v", sub)
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
			drive: func(t *testing.T, s *Server, ts *httptest.Server) string {
				id := submitRunning(t, ts)
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				if err := s.Shutdown(ctx); err == nil {
					t.Error("shutdown returned nil despite expiring deadline")
				}
				return id
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jr := openTestJournal(t, dir)
			s, ts := newTestServer(t, Config{Workers: 1, JobParallelism: 1, Journal: jr})

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

// TestRejectedFallbackNotCounted: a submission the fleet refuses (its unit
// queue is full) and the local queue then refuses too was never accepted:
// it answers 429 and is not counted as submitted or as a cache miss.
func TestRejectedFallbackNotCounted(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers: 1, JobParallelism: 1, QueueDepth: 1,
		Fleet: fleet.Config{QueueDepth: 1}, // a 4-unit sweep never fits
	})
	submitRunning(t, ts) // occupies the only worker
	spec := smallSpec()
	spec.InstructionsPerPE = 101
	if _, code := submit(t, ts, spec); code != http.StatusAccepted { // fills the local queue
		t.Fatalf("queue filler: %d", code)
	}
	before := getMetrics(t, ts)
	s.coord.Lease("fake-worker") // registers: the fleet is alive, sweeps shard

	resp := submitRaw(t, ts, shardSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rejected fallback: %d, want 429", resp.StatusCode)
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
}
