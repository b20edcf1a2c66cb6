package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"

	"equinox/internal/fleet/store"
	"equinox/internal/obs"
)

// Journal is the server's crash-safe job log: an append-only JSON-lines
// file recording job submissions (with their canonical specs), unit
// grants/completions, and terminal states. A server restarted mid-sweep
// replays it and re-queues every job that never reached a terminal
// state; determinism then guarantees the re-run converges to the same
// bytes, and any unit results the crashed run persisted are reused
// through the store.
//
// The format borrows the store's machinery: appends of durable records
// (submissions and terminals) are fsync'd, replay tolerates a truncated
// tail and unknown lines like the store's reload tolerates corrupt
// objects, and compaction — which drops finished jobs on open — rewrites
// the file with the store's WriteAtomic so a crash mid-compaction loses
// nothing.
//
// Records, one JSON object per line:
//
//	{"op":"submit","id":<key>,"spec":<canonical spec>,"t":...}
//	{"op":"unit","id":<key>,"key":<unit key>,"status":"leased|completed|failed|retrying","t":...}
//	{"op":"terminal","id":<key>,"state":"done|failed|cancelled","t":...}
//
// Unit records are advisory (recovery forensics and progress); they are
// written without fsync. Submit records are always appended before the
// job can run, so a terminal record never precedes its submission.
type Journal struct {
	dir string
	log *slog.Logger

	mu      sync.Mutex
	f       *os.File
	pending []PendingJob
}

// PendingJob is one job the journal recorded as submitted but not
// terminal — the replay output recovery re-queues.
type PendingJob struct {
	ID   string
	Spec json.RawMessage
}

type journalRecord struct {
	Op     string          `json:"op"`
	ID     string          `json:"id"`
	Spec   json.RawMessage `json:"spec,omitempty"`
	State  string          `json:"state,omitempty"`
	Key    string          `json:"key,omitempty"`
	Status string          `json:"status,omitempty"`
	T      time.Time       `json:"t"`
}

const journalName = "journal.log"

// OpenJournal opens (creating if needed) the journal under dir, replays
// it, compacts finished jobs away, and reopens for appending. The jobs
// still pending are available from Pending until handed to recovery.
func OpenJournal(dir string, logger *slog.Logger) (*Journal, error) {
	if logger == nil {
		logger = obs.NopLogger()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, log: logger}
	pending, dropped, err := j.replay()
	if err != nil {
		return nil, err
	}
	j.pending = pending
	if err := j.compact(pending); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(j.path(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	if len(pending) > 0 || dropped > 0 {
		logger.Info("journal replayed",
			"dir", dir, "pendingJobs", len(pending), "finishedDropped", dropped)
	}
	return j, nil
}

func (j *Journal) path() string { return filepath.Join(j.dir, journalName) }

// replay scans the journal, tolerating a truncated tail and foreign
// lines, and returns the jobs whose last state is still pending plus
// the count of finished jobs compaction will drop. Submit records
// always precede their terminals (see the append ordering contract), so
// a last-write-wins scan is exact.
func (j *Journal) replay() (pending []PendingJob, dropped int, err error) {
	f, err := os.Open(j.path())
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	state := map[string]string{}
	specs := map[string]json.RawMessage{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			j.log.Warn("journal: skipping unreadable record (truncated tail?)", "error", uerr.Error())
			continue
		}
		switch rec.Op {
		case "submit":
			if _, seen := state[rec.ID]; !seen {
				order = append(order, rec.ID)
			}
			state[rec.ID] = "pending"
			specs[rec.ID] = append(json.RawMessage(nil), rec.Spec...)
		case "terminal":
			if _, seen := state[rec.ID]; !seen {
				order = append(order, rec.ID)
			}
			state[rec.ID] = rec.State
		case "unit":
			// advisory only
		default:
			// foreign record from a newer version: ignore
		}
	}
	if serr := sc.Err(); serr != nil {
		j.log.Warn("journal: scan stopped early", "error", serr.Error())
	}
	for _, id := range order {
		if state[id] == "pending" {
			pending = append(pending, PendingJob{ID: id, Spec: specs[id]})
		} else {
			dropped++
		}
	}
	return pending, dropped, nil
}

// compact atomically rewrites the journal to hold only the pending
// submissions.
func (j *Journal) compact(pending []PendingJob) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, p := range pending {
		rec := journalRecord{Op: "submit", ID: p.ID, Spec: p.Spec, T: time.Now().UTC()}
		if err := enc.Encode(rec); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
	}
	if err := store.WriteAtomic(j.dir, j.path(), buf.Bytes()); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Pending returns the jobs replay found incomplete, in submission order.
func (j *Journal) Pending() []PendingJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pending
}

// append writes one record, fsyncing durable ops.
func (j *Journal) append(rec journalRecord, durable bool) {
	rec.T = time.Now().UTC()
	line, err := json.Marshal(rec)
	if err != nil {
		j.log.Warn("journal: marshal failed", "op", rec.Op, "error", err.Error())
		return
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return
	}
	if _, err := j.f.Write(line); err != nil {
		j.log.Warn("journal: append failed", "op", rec.Op, "error", err.Error())
		return
	}
	if durable {
		j.f.Sync() //nolint:errcheck
	}
}

// Submit records a job submission with its canonical spec. It must be
// called before the job can reach a terminal state, so replay's
// last-write-wins scan stays exact.
func (j *Journal) Submit(id string, spec json.RawMessage) {
	if j == nil {
		return
	}
	j.append(journalRecord{Op: "submit", ID: id, Spec: spec}, true)
}

// Unit records a unit-level grant/completion event (advisory, not
// fsync'd: a crash loses at most forensics, never job state).
func (j *Journal) Unit(id, unitKey, status string) {
	if j == nil {
		return
	}
	j.append(journalRecord{Op: "unit", ID: id, Key: unitKey, Status: status}, false)
}

// Terminal records a job's terminal state.
func (j *Journal) Terminal(id string, state JobState) {
	if j == nil {
		return
	}
	j.append(journalRecord{Op: "terminal", ID: id, State: string(state)}, true)
}

// Close closes the journal file; further appends are dropped.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
