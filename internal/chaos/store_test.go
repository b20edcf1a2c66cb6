package chaos

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"equinox/internal/fleet/store"
)

// TestStorePutErrorLeavesNoEntry injects an ENOSPC-style failure on
// every Put and asserts the contract the coordinator relies on: the
// entry simply stays absent — no partial object.
func TestStorePutErrorLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	in := New(11)
	st := in.WrapStore(disk, StoreFaults{PutError: 1})

	if evicted := st.Put("deadbeef", []byte("payload")); evicted != nil {
		t.Fatalf("failed put evicted %v", evicted)
	}
	if _, ok := st.Get("deadbeef"); ok {
		t.Fatal("entry visible after failed put")
	}
	if st.Len() != 0 {
		t.Fatalf("store len = %d after failed put", st.Len())
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "objects", "*", "*")); len(entries) != 0 {
		t.Fatalf("failed put left object files: %v", entries)
	}
	if in.Counts()["store-put-error"] != 1 {
		t.Errorf("counts = %v", in.Counts())
	}
}

// TestStoreTornWriteInvisibleAndSkippedOnReload injects a short write
// mid-Put — a raw half-written object file with no valid header, the
// state a crash during the write leaves — and asserts no corrupt object
// is ever visible to Get, and a fresh OpenDisk's directory sweep skips it.
func TestStoreTornWriteInvisibleAndSkippedOnReload(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := New(12)
	st := in.WrapStore(disk, StoreFaults{TornWrite: 1, Dir: dir})

	val := []byte(`{"runs":[{"scheme":"EquiNox","execCycles":123}]}`)
	st.Put("torn00", val)
	if in.Counts()["store-torn-write"] != 1 {
		t.Fatalf("counts = %v", in.Counts())
	}
	// The torn file is physically present...
	raw, err := os.ReadFile(filepath.Join(dir, "objects", "to", "torn00"))
	if err != nil {
		t.Fatalf("torn object file missing: %v", err)
	}
	if len(raw) >= len(val) {
		t.Fatalf("torn write is not torn: %d bytes of %d", len(raw), len(val))
	}
	// ...but never visible as a valid entry.
	if got, ok := st.Get("torn00"); ok {
		t.Fatalf("corrupt entry served to Get: %q", got)
	}
	// A healthy entry beside it still works.
	healthy := in.WrapStore(disk, StoreFaults{})
	healthy.Put("good00", val)
	if got, ok := healthy.Get("good00"); !ok || !bytes.Equal(got, val) {
		t.Fatal("healthy entry lost next to torn one")
	}
	disk.Close()

	// The directory sweep on reopen must skip the torn entry (with a
	// warning) and keep the healthy one.
	reopened, err := store.OpenDisk(dir, nil)
	if err != nil {
		t.Fatalf("reload with torn entry present: %v", err)
	}
	defer reopened.Close()
	if _, ok := reopened.Get("torn00"); ok {
		t.Fatal("reload resurrected the corrupt entry")
	}
	if got, ok := reopened.Get("good00"); !ok || !bytes.Equal(got, val) {
		t.Fatal("reload lost the healthy entry")
	}
	if reopened.Len() != 1 {
		t.Fatalf("reloaded len = %d, want 1", reopened.Len())
	}
}

// TestStoreFaultMixUnderLoad drives a mixed fault profile over many
// operations and asserts the invariant the convergence suite depends
// on: every value the store serves is exactly the value that was put.
func TestStoreFaultMixUnderLoad(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.OpenDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	in := New(13)
	st := in.WrapStore(disk, StoreFaults{
		PutError:  0.3,
		TornWrite: 0.3,
		Dir:       dir,
		GetMiss:   0.2,
		ReadDelay: 0.1,
		Delay:     time.Millisecond,
	})
	vals := map[string][]byte{}
	for i := 0; i < 64; i++ {
		k := fmt.Sprintf("key%04d", i)
		vals[k] = []byte(fmt.Sprintf(`{"i":%d,"pad":"0123456789abcdef"}`, i))
		st.Put(k, vals[k])
	}
	for k, want := range vals {
		if got, ok := st.Get(k); ok && !bytes.Equal(got, want) {
			t.Fatalf("store served wrong bytes for %s: %q", k, got)
		}
	}
	counts := in.Counts()
	if counts["store-put-error"] == 0 || counts["store-torn-write"] == 0 || counts["store-get-miss"] == 0 {
		t.Fatalf("fault mix did not exercise all kinds: %v", counts)
	}
	// The directory survives a full reload despite the torn writes.
	disk2, err := store.OpenDisk(dir, nil)
	if err != nil {
		t.Fatalf("reload after fault mix: %v", err)
	}
	defer disk2.Close()
	for k, want := range vals {
		if got, ok := disk2.Get(k); ok && !bytes.Equal(got, want) {
			t.Fatalf("reloaded store served wrong bytes for %s", k)
		}
	}
}

// TestGetMissDoesNotConsultInner pins that an injected miss hides even a
// present entry — the fault is injected before the inner store.
func TestGetMissDoesNotConsultInner(t *testing.T) {
	mem := store.NewMemory(16, 0)
	mem.Put("k", []byte("v"))
	in := New(14)
	st := in.WrapStore(mem, StoreFaults{GetMiss: 1})
	if _, ok := st.Get("k"); ok {
		t.Fatal("injected miss still served the entry")
	}
	// Delegated methods pass through.
	if st.Len() != 1 || st.SizeBytes() == 0 {
		t.Fatalf("len=%d size=%d", st.Len(), st.SizeBytes())
	}
}
