package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
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
	d := &Disk{dir: dir, log: logger}
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
// validating every entry; corrupt ones are skipped with a warning. Each
// object is opened once and read into one buffer reused across the sweep,
// and only its payload size is kept.
func (d *Disk) reload() error {
	objects := filepath.Join(d.dir, "objects")
	prefixes, err := os.ReadDir(objects)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var listings [][]os.DirEntry
	total := 0
	for _, p := range prefixes {
		if !p.IsDir() {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(objects, p.Name()))
		if err != nil {
			continue
		}
		listings = append(listings, entries)
		total += len(entries)
	}
	d.sizes = make(map[string]int64, total)
	var buf []byte
	for _, entries := range listings {
		for _, e := range entries {
			if !e.Type().IsRegular() {
				continue
			}
			key := e.Name()
			var payload []byte
			payload, buf, err = readObject(d.objectPath(key), buf)
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

// readObject reads the object file at path into buf, growing it as needed,
// and validates the frame: the magic, the declared length against the bytes
// actually there (none missing, none trailing) and the payload's CRC. It
// returns the payload, which aliases the returned buffer, and that buffer
// for the caller to reuse. The file is read to EOF rather than sized with
// a stat, so one open and two reads cover an object that fits.
func readObject(path string, buf []byte) (payload, grown []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, buf, err
	}
	defer f.Close() // read-only: a Close error loses nothing
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(512, len(buf)))
		}
		n, err := f.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, buf, err
		}
	}
	if len(buf) < diskHeaderLen || string(buf[:len(diskMagic)]) != diskMagic {
		return nil, buf, fmt.Errorf("bad magic or truncated header (%d bytes)", len(buf))
	}
	n := binary.BigEndian.Uint64(buf[len(diskMagic):])
	sum := binary.BigEndian.Uint32(buf[len(diskMagic)+8:])
	payload = buf[diskHeaderLen:]
	if uint64(len(payload)) != n {
		return nil, buf, fmt.Errorf("payload is %d bytes, header says %d", len(payload), n)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, buf, fmt.Errorf("payload CRC mismatch")
	}
	return payload, buf, nil
}

// Get returns the entry's payload, freshly read and validated, with a
// capacity equal to its length. A key absent from the in-memory index is
// probed on disk before reporting a miss, so entries written by other
// processes sharing the directory are found.
func (d *Disk) Get(key string) ([]byte, bool) {
	d.mu.Lock()
	size, known := d.sizes[key]
	d.mu.Unlock()
	// An indexed entry's size lets one read fill the buffer; the spare byte
	// is where the read that finds EOF lands.
	payload, _, err := readObject(d.objectPath(key), make([]byte, 0, diskHeaderLen+int(size)+1))
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
	return payload[:len(payload):len(payload)], true
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

// Delete unlinks key's object without an fsync: a crash may bring the
// entry back, which a content-addressed store tolerates.
func (d *Disk) Delete(key string) {
	if err := os.Remove(d.objectPath(key)); err != nil && !os.IsNotExist(err) {
		d.log.Warn("store: delete failed", "key", key, "error", err.Error())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bytes -= d.sizes[key]
	delete(d.sizes, key)
}

// Keys returns the keys of the entries believed present, sorted.
func (d *Disk) Keys() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]string, 0, len(d.sizes))
	for k := range d.sizes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
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
