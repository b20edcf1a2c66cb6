// Package store is the content-addressed result store behind the
// evaluation service's cache and the fleet coordinator's unit-level result
// reuse. Keys are the hex SHA-256 of a canonical job (or work-unit) spec,
// so an entry is by construction the exact result of the sweep it names:
// two stores sharing a key hold interchangeable values, which is what lets
// results dedupe across server restarts and across nodes sharing a
// directory.
//
// Three implementations:
//
//   - Memory: a bounded in-process LRU (entry-count and approximate-byte
//     limits) — the pre-fleet single-process cache.
//   - Disk: a persistent on-disk store (one CRC-framed object file per
//     entry, written by atomic write-temp-rename, validated on every read
//     and on reload) safe for concurrent writers on one directory. Beyond
//     Store it offers Delete (an unlink, not fsync'd) and Keys (sorted),
//     with which the job server keeps its journal of unfinished jobs.
//   - Tiered: a Memory read-through layer over a Disk (or any) backing
//     store.
package store

import (
	"os"
	"path/filepath"
)

// Store is a content-addressed blob store. All implementations are safe
// for concurrent use.
type Store interface {
	// Get returns the stored value for key, or false when absent.
	Get(key string) ([]byte, bool)

	// Put stores val under key, replacing any existing entry, and returns
	// the keys that became unretrievable to make room (nil for persistent
	// stores). The owner uses the returned keys to drop its own
	// bookkeeping for evicted results.
	Put(key string, val []byte) (evicted []string)

	// Len returns the number of retrievable entries.
	Len() int

	// SizeBytes returns the approximate total payload bytes held.
	SizeBytes() int64
}

// WriteAtomic replaces dst with the concatenated chunks so that a crash
// leaves either the old file or the new one, never a torn write: the bytes
// go to a temp file in tmpDir (which must share dst's filesystem), are
// fsync'd, and the file is renamed onto dst, whose directory is created if
// needed and then fsync'd to persist the rename.
func WriteAtomic(tmpDir, dst string, chunks ...[]byte) (err error) {
	tmp, err := os.CreateTemp(tmpDir, filepath.Base(dst)+".*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil { // after a successful rename the name is dst's
			tmp.Close() // a second Close only returns an error
			os.Remove(tmp.Name())
		}
	}()
	for _, c := range chunks {
		if _, err = tmp.Write(c); err != nil {
			return err
		}
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), dst); err != nil {
		return err
	}
	// Best-effort: some filesystems reject directory fsync.
	if dirf, err := os.Open(filepath.Dir(dst)); err == nil {
		dirf.Sync()
		dirf.Close()
	}
	return nil
}
