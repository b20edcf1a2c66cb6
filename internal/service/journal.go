package service

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"

	"equinox/internal/fleet/store"
	"equinox/internal/obs"
)

// Journal is the server's crash-safe record of accepted jobs: a disk
// store in the journal directory's pending/ subdirectory holding one
// CRC-framed object per job that was accepted but has not finished, keyed
// by job id, with the canonical spec as its payload. A server restarted mid-sweep re-queues
// every job the journal still holds; determinism then guarantees the
// re-run converges to the same bytes, and any unit results the crashed
// run persisted are reused through the result store.
//
// Submit is the store's Put — a temp file, fsync, rename and directory
// fsync — so an accepted job is durable before it can run. Terminal
// unlinks the object without an fsync: a finished job that a crash brings
// back re-runs as result-store hits and converges to the same bytes. The
// subdirectory keeps the journal's objects apart from a result store's, so
// one directory can serve as both.
type Journal struct {
	disk    *store.Disk
	pending []PendingJob
}

// PendingJob is one job the journal recorded as submitted but not
// terminal — what recovery re-queues.
type PendingJob struct {
	ID   string
	Spec json.RawMessage
}

// legacyJournal is the JSON-lines log older versions kept in the journal
// directory; OpenJournal imports it once and renames it to
// legacyJournal+".imported".
const legacyJournal = "journal.log"

// OpenJournal opens (creating if needed) the journal under dir. The jobs
// it finds pending are available from Pending until handed to recovery.
func OpenJournal(dir string, logger *slog.Logger) (*Journal, error) {
	if logger == nil {
		logger = obs.NopLogger()
	}
	disk, err := store.OpenDisk(filepath.Join(dir, "pending"), logger)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{disk: disk}
	if err := j.importLegacy(filepath.Join(dir, legacyJournal), logger); err != nil {
		return nil, err
	}
	for _, id := range disk.Keys() {
		if spec, ok := disk.Get(id); ok {
			j.pending = append(j.pending, PendingJob{ID: id, Spec: spec})
		}
	}
	return j, nil
}

// importLegacy moves the jobs an older version's journal.log left pending
// — its submit records minus its terminal ones, last record winning — into
// the store, then renames the log so the import runs once. Unreadable
// lines (a torn tail) and other records are skipped, as are ids that are
// not job keys (64 hex digits), which no job could have. A crash before
// the rename repeats the import, which rewrites the same objects; a job
// the store could not take fails the open and keeps the log.
func (j *Journal) importLegacy(path string, logger *slog.Logger) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	pending := map[string]json.RawMessage{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var rec struct {
			Op   string          `json:"op"`
			ID   string          `json:"id"`
			Spec json.RawMessage `json:"spec"`
		}
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			continue
		}
		switch rec.Op {
		case "submit":
			pending[rec.ID] = rec.Spec
		case "terminal":
			delete(pending, rec.ID)
		}
	}
	if err := sc.Err(); err != nil {
		logger.Warn("journal: legacy log scan stopped early", "error", err.Error())
	}
	for id, spec := range pending {
		if _, err := hex.DecodeString(id); err != nil || len(id) != 2*sha256.Size {
			continue
		}
		j.disk.Put(id, spec)
		if _, ok := j.disk.Get(id); !ok {
			return fmt.Errorf("journal: could not import job %s from %s", id, path)
		}
	}
	if err := os.Rename(path, path+".imported"); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	logger.Info("journal: imported legacy log", "path", path)
	return nil
}

// Pending returns the jobs the journal held when opened, sorted by id.
func (j *Journal) Pending() []PendingJob { return j.pending }

// Submit records a job submission with its canonical spec; it returns
// once the record is durable (the store logs a write that failed).
func (j *Journal) Submit(id string, spec json.RawMessage) {
	if j == nil {
		return
	}
	j.disk.Put(id, spec)
}

// Unit does nothing: unit progress is not journaled. It remains for
// callers of the method set.
func (j *Journal) Unit(id, unitKey, status string) {}

// Terminal removes a finished job's record.
func (j *Journal) Terminal(id string, state JobState) {
	if j == nil {
		return
	}
	j.disk.Delete(id)
}

// Close returns nil: the journal holds no open files between calls.
func (j *Journal) Close() error { return nil }
