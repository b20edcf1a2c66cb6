package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"sync"

	"equinox/internal/obs"
)

// Disk store layout, under one root directory shared by any number of
// processes:
//
//	objects/<key[:2]>/<key>   one file per entry: header + payload
//	tmp/                      scratch files for atomic writes
//
// The object files are the store's only record. A Put is one WriteAtomic:
// the entry is written to tmp/, fsync'd, renamed into objects/ (rename
// within one filesystem is atomic, so readers see either the old entry or
// the new one, never a torn write), and the directory is fsync'd. Because
// the store is content-addressed, two nodes racing to write one key are
// writing equivalent values and last-rename-wins is correct. Any other
// file in the root (such as an index.log an older version kept) is
// ignored.
//
// Each entry file carries a magic, the payload length, and a CRC32 of the
// payload, so a truncated or corrupted entry is detected on reload (and on
// every read) and skipped with a warning instead of poisoning the store.
const (
	diskMagic     = "EQNXST1\n"
	diskHeaderLen = len(diskMagic) + 8 + 4 // magic + length + crc32
)

// Disk is a persistent content-addressed store rooted at a directory. It
// is safe for concurrent use within a process, and safe for concurrent
// writers across processes sharing the directory; a Get that misses the
// in-memory index probes the directory, so entries written by other nodes
// become visible without a reload.
type Disk struct {
	dir string
	log *slog.Logger

	mu    sync.Mutex
	sizes map[string]int64
	bytes int64
}

// OpenDisk opens (creating if needed) a disk store rooted at dir. Corrupt
// entries found during reload are skipped with a warning on logger (nil
// discards); reload never fails on bad entries, only on an unusable
// directory.
func OpenDisk(dir string, logger *slog.Logger) (*Disk, error) {
	if logger == nil {
		logger = obs.NopLogger()
	}
	for _, sub := range []string{dir, filepath.Join(dir, "objects"), filepath.Join(dir, "tmp")} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	d := &Disk{dir: dir, log: logger, sizes: map[string]int64{}}
	if err := d.reload(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *Disk) objectPath(key string) string {
	prefix := key
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	return filepath.Join(d.dir, "objects", prefix, key)
}

// reload rebuilds the in-memory index by sweeping the objects tree and
// validating every entry; corrupt ones are skipped with a warning.
func (d *Disk) reload() error {
	prefixes, err := os.ReadDir(filepath.Join(d.dir, "objects"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, p := range prefixes {
		if !p.IsDir() {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(d.dir, "objects", p.Name()))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if !e.Type().IsRegular() {
				continue
			}
			key := e.Name()
			payload, err := d.readEntry(key)
			if err != nil {
				d.log.Warn("store: skipping corrupt entry on reload", "key", key, "error", err.Error())
				continue
			}
			d.sizes[key] = int64(len(payload))
			d.bytes += int64(len(payload))
		}
	}
	return nil
}

// readEntry reads and validates one entry file, returning its payload.
func (d *Disk) readEntry(key string) ([]byte, error) {
	raw, err := os.ReadFile(d.objectPath(key))
	if err != nil {
		return nil, err
	}
	if len(raw) < diskHeaderLen || string(raw[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("bad magic or truncated header (%d bytes)", len(raw))
	}
	n := binary.BigEndian.Uint64(raw[len(diskMagic):])
	sum := binary.BigEndian.Uint32(raw[len(diskMagic)+8:])
	payload := raw[diskHeaderLen:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("payload is %d bytes, header says %d", len(payload), n)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("payload CRC mismatch")
	}
	return payload, nil
}

// Get returns the entry's payload. A key absent from the in-memory index
// is probed on disk before reporting a miss, so entries written by other
// processes sharing the directory are found.
func (d *Disk) Get(key string) ([]byte, bool) {
	d.mu.Lock()
	_, known := d.sizes[key]
	d.mu.Unlock()
	payload, err := d.readEntry(key)
	if err != nil {
		if known {
			if !os.IsNotExist(err) {
				d.log.Warn("store: dropping unreadable entry", "key", key, "error", err.Error())
			}
			d.mu.Lock()
			if prev, ok := d.sizes[key]; ok {
				d.bytes -= prev
				delete(d.sizes, key)
			}
			d.mu.Unlock()
		}
		return nil, false
	}
	if !known {
		d.mu.Lock()
		if _, ok := d.sizes[key]; !ok {
			d.sizes[key] = int64(len(payload))
			d.bytes += int64(len(payload))
		}
		d.mu.Unlock()
	}
	return payload, true
}

// Put writes the entry with WriteAtomic. Persistent stores never evict,
// so it always returns nil; a write failure is logged and the entry simply
// stays absent.
func (d *Disk) Put(key string, val []byte) []string {
	header := make([]byte, diskHeaderLen)
	copy(header, diskMagic)
	binary.BigEndian.PutUint64(header[len(diskMagic):], uint64(len(val)))
	binary.BigEndian.PutUint32(header[len(diskMagic)+8:], crc32.ChecksumIEEE(val))
	if err := WriteAtomic(filepath.Join(d.dir, "tmp"), d.objectPath(key), header, val); err != nil {
		d.log.Warn("store: put failed", "key", key, "error", err.Error())
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if prev, ok := d.sizes[key]; ok {
		d.bytes -= prev
	}
	d.sizes[key] = int64(len(val))
	d.bytes += int64(len(val))
	return nil
}

// Len returns the number of entries believed present.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.sizes)
}

// SizeBytes returns the total payload bytes believed present.
func (d *Disk) SizeBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// Close returns nil: a Disk holds no open files between calls.
func (d *Disk) Close() error { return nil }
