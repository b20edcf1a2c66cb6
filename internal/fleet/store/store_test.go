package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestMemoryLRUEntryBound(t *testing.T) {
	m := NewMemory(2, 0)
	m.Put("a", []byte("1"))
	m.Put("b", []byte("2"))
	if _, ok := m.Get("a"); !ok { // promote a
		t.Fatal("a missing")
	}
	evicted := m.Put("c", []byte("3"))
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if _, ok := m.Get("b"); ok {
		t.Error("b still present after eviction")
	}
	if m.Len() != 2 {
		t.Errorf("len = %d, want 2", m.Len())
	}
}

func TestMemoryByteBound(t *testing.T) {
	m := NewMemory(100, 100)
	m.Put("a", make([]byte, 60))
	m.Put("b", make([]byte, 30))
	if m.SizeBytes() != 90 {
		t.Fatalf("bytes = %d, want 90", m.SizeBytes())
	}
	// 60+30+50 > 100: the oldest entries go until the bound holds.
	evicted := m.Put("c", make([]byte, 50))
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("evicted %v, want [a]", evicted)
	}
	if m.SizeBytes() != 80 {
		t.Errorf("bytes = %d, want 80", m.SizeBytes())
	}
	// An entry larger than the whole bound still lands; everything else
	// is evicted but the newest entry is never dropped.
	evicted = m.Put("huge", make([]byte, 500))
	if m.Len() != 1 || len(evicted) != 2 {
		t.Errorf("len = %d evicted = %v, want the huge entry alone", m.Len(), evicted)
	}
	if _, ok := m.Get("huge"); !ok {
		t.Error("huge entry missing")
	}
	// Refreshing an entry in place adjusts the byte accounting.
	m.Put("huge", make([]byte, 10))
	if m.SizeBytes() != 10 {
		t.Errorf("bytes after shrink = %d, want 10", m.SizeBytes())
	}
}

func TestDiskRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(`{"result": "big sweep"}`)
	d.Put("abc123", want)
	if got, ok := d.Get("abc123"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("get = %q %v", got, ok)
	}
	if d.Len() != 1 {
		t.Errorf("len = %d, want 1", d.Len())
	}

	// A fresh store over the same directory sees the entry.
	d2, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := d2.Get("abc123"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("reopened get = %q %v", got, ok)
	}
	if d2.Len() != 1 || d2.SizeBytes() != int64(len(want)) {
		t.Errorf("reopened len = %d bytes = %d, want 1 and %d", d2.Len(), d2.SizeBytes(), len(want))
	}
}

// TestDiskObjectFormat pins the object file byte for byte against a frame
// built by hand, so stores written by any version open unchanged.
func TestDiskObjectFormat(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("c0ffee", []byte("hello"))
	got, err := os.ReadFile(filepath.Join(dir, "objects", "c0", "c0ffee"))
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("EQNXST1\n" +
		"\x00\x00\x00\x00\x00\x00\x00\x05" + // payload length, big-endian
		"\x36\x10\xa6\x86" + // CRC-32 (IEEE) of "hello", big-endian
		"hello")
	if !bytes.Equal(got, want) {
		t.Fatalf("object file = %q, want %q", got, want)
	}
}

// TestDiskIgnoresLegacyIndex opens a directory an older version wrote,
// with an index.log beside the objects. The objects alone decide what the
// store holds: a put record for a missing object adds nothing, a del
// record does not hide an object still present (a content-addressed entry
// is its key's correct value by construction), and a torn line is
// harmless. The index is left as it was, and new writes leave nothing but
// objects.
func TestDiskIgnoresLegacyIndex(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("aa01", []byte("one"))
	d.Put("bb02", []byte("two"))
	legacy := []byte("put cc03 5\ndel bb02\nput aa0")
	if err := os.WriteFile(filepath.Join(dir, "index.log"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 2 || d2.SizeBytes() != 6 {
		t.Fatalf("len = %d bytes = %d, want the 2 objects (6 bytes)", d2.Len(), d2.SizeBytes())
	}
	for key, want := range map[string]string{"aa01": "one", "bb02": "two"} {
		if got, ok := d2.Get(key); !ok || string(got) != want {
			t.Errorf("Get(%s) = %q %v, want %q", key, got, ok, want)
		}
	}
	if got, ok := d2.Get("cc03"); ok {
		t.Errorf("index-only key served: %q", got)
	}
	d2.Put("dd04", []byte("four"))
	if raw, err := os.ReadFile(filepath.Join(dir, "index.log")); err != nil || !bytes.Equal(raw, legacy) {
		t.Errorf("legacy index.log = %q %v, want it untouched", raw, err)
	}

	// A store's own writes leave only objects/ and an empty tmp/.
	fresh := t.TempDir()
	d3, err := OpenDisk(fresh, nil)
	if err != nil {
		t.Fatal(err)
	}
	d3.Put("aa01", []byte("one"))
	d3.Put("ee05", []byte("five"))
	var names []string
	entries, _ := os.ReadDir(fresh)
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if strings.Join(names, " ") != "objects tmp" {
		t.Errorf("store root holds %v, want [objects tmp]", names)
	}
	if tmp, _ := os.ReadDir(filepath.Join(fresh, "tmp")); len(tmp) != 0 {
		t.Errorf("tmp/ holds %d leftover files", len(tmp))
	}
}

// FuzzDiskObject plants arbitrary bytes as an object file next to a valid
// hand-framed one. OpenDisk must accept the directory, and the store must serve, count
// and size the planted entry exactly when it is a valid frame: magic,
// length and CRC all matching.
func FuzzDiskObject(f *testing.F) {
	frame := func(payload []byte) []byte {
		h := make([]byte, 20, 20+len(payload))
		copy(h, "EQNXST1\n")
		binary.BigEndian.PutUint64(h[8:], uint64(len(payload)))
		binary.BigEndian.PutUint32(h[16:], crc32.ChecksumIEEE(payload))
		return append(h, payload...)
	}
	valid := frame([]byte(`{"runs":[]}`))
	badCRC := append([]byte(nil), valid...)
	badCRC[16] ^= 0xff
	for _, seed := range [][]byte{valid, frame(nil), valid[:len(valid)-3], valid[:10], badCRC, nil, []byte("not a store entry")} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for key, raw := range map[string][]byte{"good": frame([]byte("fine")), "fuzzed": data} {
			sub := filepath.Join(dir, "objects", key[:2])
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(sub, key), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var payload []byte
		ok := len(data) >= 20 && string(data[:8]) == "EQNXST1\n" &&
			binary.BigEndian.Uint64(data[8:]) == uint64(len(data)-20) &&
			binary.BigEndian.Uint32(data[16:]) == crc32.ChecksumIEEE(data[20:])
		if ok {
			payload = data[20:]
		}

		d, err := OpenDisk(dir, nil)
		if err != nil {
			t.Fatalf("OpenDisk: %v", err)
		}
		n, size := 1, int64(4)
		if ok {
			n, size = 2, 4+int64(len(payload))
		}
		if d.Len() != n || d.SizeBytes() != size {
			t.Fatalf("len = %d bytes = %d, want %d and %d (valid frame: %v)", d.Len(), d.SizeBytes(), n, size, ok)
		}
		got, served := d.Get("fuzzed")
		if served != ok || !bytes.Equal(got, payload) {
			t.Fatalf("Get = %q %v, want %q %v", got, served, payload, ok)
		}
		if got, served := d.Get("good"); !served || string(got) != "fine" {
			t.Fatalf("valid neighbour lost: %q %v", got, served)
		}
	})
}

func TestDiskCorruptEntrySkippedOnReload(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Put("good", []byte("fine"))
	d.Put("truncated", []byte("this payload will be cut"))
	d.Put("garbage", []byte("this payload will be clobbered"))
	d.Close()

	// Truncate one entry mid-payload and overwrite another with noise.
	truncPath := filepath.Join(dir, "objects", "tr", "truncated")
	raw, err := os.ReadFile(truncPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "objects", "ga", "garbage"), []byte("not a store entry"), 0o644); err != nil {
		t.Fatal(err)
	}

	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	d2, err := OpenDisk(dir, logger)
	if err != nil {
		t.Fatalf("reload with corrupt entries must not fail: %v", err)
	}
	defer d2.Close()
	if got, ok := d2.Get("good"); !ok || string(got) != "fine" {
		t.Errorf("good entry lost: %q %v", got, ok)
	}
	for _, key := range []string{"truncated", "garbage"} {
		if _, ok := d2.Get(key); ok {
			t.Errorf("%s entry served despite corruption", key)
		}
	}
	if d2.Len() != 1 {
		t.Errorf("len = %d, want 1", d2.Len())
	}
	if n := strings.Count(logBuf.String(), "skipping corrupt entry"); n != 2 {
		t.Errorf("warnings = %d, want 2\n%s", n, logBuf.String())
	}
}

func TestDiskConcurrentWritersSharedDir(t *testing.T) {
	dir := t.TempDir()
	// Two independent store instances (as two processes would open) plus
	// goroutine-level concurrency within each.
	a, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const keys = 32
	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		for _, d := range []*Disk{a, b} {
			wg.Add(1)
			go func(d *Disk, i int) {
				defer wg.Done()
				key := fmt.Sprintf("key%04d", i)
				d.Put(key, []byte(fmt.Sprintf("value-%04d", i)))
			}(d, i)
		}
	}
	wg.Wait()

	// Every key must be readable from both instances (cross-instance
	// visibility via the on-disk probe), with the exact value.
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key%04d", i)
		want := fmt.Sprintf("value-%04d", i)
		for name, d := range map[string]*Disk{"a": a, "b": b} {
			got, ok := d.Get(key)
			if !ok || string(got) != want {
				t.Fatalf("%s.Get(%s) = %q %v, want %q", name, key, got, ok, want)
			}
		}
	}
}

func TestDiskCrossProcessVisibilityWithoutReload(t *testing.T) {
	dir := t.TempDir()
	a, _ := OpenDisk(dir, nil)
	defer a.Close()
	b, _ := OpenDisk(dir, nil)
	defer b.Close()
	a.Put("shared", []byte("written by a"))
	if got, ok := b.Get("shared"); !ok || string(got) != "written by a" {
		t.Fatalf("b.Get = %q %v, want the entry a wrote", got, ok)
	}
}

func TestTieredPromotesAndAbsorbsEvictions(t *testing.T) {
	dir := t.TempDir()
	back, err := OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := NewMemory(1, 0)
	ti := NewTiered(front, back)

	if evicted := ti.Put("a", []byte("1")); evicted != nil {
		t.Errorf("tiered Put reported evictions %v", evicted)
	}
	if evicted := ti.Put("b", []byte("2")); evicted != nil {
		t.Errorf("tiered Put reported evictions %v", evicted)
	}
	// "a" fell out of the 1-entry front tier but the back tier holds it.
	if _, ok := front.Get("a"); ok {
		t.Error("front tier kept a beyond its bound")
	}
	if got, ok := ti.Get("a"); !ok || string(got) != "1" {
		t.Fatalf("tiered get = %q %v", got, ok)
	}
	// The read-through promoted it back to the front tier.
	if _, ok := front.Get("a"); !ok {
		t.Error("back-tier hit was not promoted")
	}
	if ti.Len() != 2 {
		t.Errorf("len = %d, want 2 (durable tier)", ti.Len())
	}
}
