package chaos

import (
	"os"
	"path/filepath"
	"time"

	"equinox/internal/fleet/store"
)

// StoreFaults configures the store wrapper's fault mix. All
// probabilities are per-operation in [0, 1].
type StoreFaults struct {
	// PutError drops a Put entirely, the observable effect of ENOSPC or
	// any mid-write I/O error on the disk store: the entry simply stays
	// absent (store.Store's Put reports no error by contract).
	PutError float64
	// TornWrite replaces a Put with a half-written raw object file
	// dropped straight into the disk layout under Dir — the on-disk
	// state a crash between write and rename-fsync leaves behind. The
	// entry fails CRC/magic validation, so Get and reload must skip it.
	// Ignored unless Dir is set.
	TornWrite float64
	// Dir is the disk store's root directory, required for TornWrite.
	Dir string
	// GetMiss makes a Get report absent without consulting the inner
	// store (an unreadable or slow-to-appear entry).
	GetMiss float64
	// ReadDelay stalls a Get by Delay before serving it.
	ReadDelay float64
	// Delay is the stall applied to delayed reads (default 10ms).
	Delay time.Duration
}

// faultStore injects StoreFaults in front of an inner store.Store.
type faultStore struct {
	in    *Injector
	inner store.Store
	f     StoreFaults
}

// WrapStore returns a store.Store that injects f's faults in front of
// inner. Only faults the system claims to tolerate are injectable:
// absent entries and dropped writes, never silently corrupted payloads
// served as valid.
func (in *Injector) WrapStore(inner store.Store, f StoreFaults) store.Store {
	if f.Delay <= 0 {
		f.Delay = 10 * time.Millisecond
	}
	return &faultStore{in: in, inner: inner, f: f}
}

func (s *faultStore) Get(key string) ([]byte, bool) {
	if s.in.roll(s.f.GetMiss) {
		s.in.Fault("store-get-miss")
		return nil, false
	}
	if s.in.roll(s.f.ReadDelay) {
		s.in.Fault("store-read-delay")
		time.Sleep(s.f.Delay)
	}
	return s.inner.Get(key)
}

func (s *faultStore) Put(key string, val []byte) []string {
	if s.in.roll(s.f.PutError) {
		s.in.Fault("store-put-error")
		return nil
	}
	if s.f.Dir != "" && s.in.roll(s.f.TornWrite) {
		s.in.Fault("store-torn-write")
		s.tearWrite(key, val)
		return nil
	}
	return s.inner.Put(key, val)
}

// tearWrite plants a truncated object file at the key's disk-layout
// path, bypassing the store's atomic tmp-fsync-rename protocol — the
// crash artifact the CRC framing exists to catch. Half the payload with
// no header guarantees the magic check fails.
func (s *faultStore) tearWrite(key string, val []byte) {
	prefix := key
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	dir := filepath.Join(s.f.Dir, "objects", prefix)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	torn := val[:len(val)/2]
	os.WriteFile(filepath.Join(dir, key), torn, 0o644) //nolint:errcheck
}

func (s *faultStore) Len() int         { return s.inner.Len() }
func (s *faultStore) SizeBytes() int64 { return s.inner.SizeBytes() }
