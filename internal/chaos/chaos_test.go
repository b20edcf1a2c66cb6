package chaos

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestInjectorDeterministic pins the injector's core property: two
// injectors with one seed draw identical fault sequences, and different
// seeds draw different ones.
func TestInjectorDeterministic(t *testing.T) {
	draw := func(seed int64) []bool {
		in := New(seed)
		seq := make([]bool, 256)
		for i := range seq {
			seq[i] = in.roll(0.3)
		}
		return seq
	}
	a, b := draw(42), draw(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := draw(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 drew identical sequences")
	}
}

func TestInjectorCounts(t *testing.T) {
	in := New(1)
	in.Fault("worker-kill")
	in.Fault("worker-kill")
	in.Fault("net-drop")
	if got := in.Counts()["worker-kill"]; got != 2 {
		t.Errorf("worker-kill count = %d, want 2", got)
	}
	if got := in.Total(); got != 3 {
		t.Errorf("total = %d, want 3", got)
	}
	if kinds := in.Kinds(); len(kinds) != 2 || kinds[0] != "net-drop" {
		t.Errorf("kinds = %v", kinds)
	}
	if in.Seed() != 1 {
		t.Errorf("seed = %d", in.Seed())
	}
}

// TestRollBoundaries pins the degenerate probabilities: 0 never fires, 1
// always does — scenarios rely on p=1 for deterministic single-fault
// setups.
func TestRollBoundaries(t *testing.T) {
	in := New(7)
	for i := 0; i < 100; i++ {
		if in.roll(0) {
			t.Fatal("p=0 rolled true")
		}
		if !in.roll(1) {
			t.Fatal("p=1 rolled false")
		}
	}
}

// newBackend returns a test server that counts requests and echoes 200s.
func newBackend(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok") //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	return ts, &hits
}

func TestTransportDrop(t *testing.T) {
	ts, hits := newBackend(t)
	in := New(3)
	hc := &http.Client{Transport: in.WrapTransport(nil, NetFaults{Drop: 1})}
	if _, err := hc.Post(ts.URL, "text/plain", bytes.NewReader([]byte("x"))); err == nil {
		t.Fatal("dropped request did not error")
	}
	if hits.Load() != 0 {
		t.Fatalf("backend saw %d requests, want 0", hits.Load())
	}
	if in.Counts()["net-drop"] != 1 {
		t.Errorf("counts = %v", in.Counts())
	}
}

func TestTransportErr5xx(t *testing.T) {
	ts, hits := newBackend(t)
	in := New(3)
	hc := &http.Client{Transport: in.WrapTransport(nil, NetFaults{Err5xx: 1})}
	resp, err := hc.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	// The request DID reach the server — that is the point: the client
	// cannot tell a rewritten response from a server-side failure.
	if hits.Load() != 1 {
		t.Fatalf("backend saw %d requests, want 1", hits.Load())
	}
}

func TestTransportDuplicate(t *testing.T) {
	ts, hits := newBackend(t)
	in := New(3)
	hc := &http.Client{Transport: in.WrapTransport(nil, NetFaults{Dup: 1})}
	// http.NewRequest with a bytes.Reader sets GetBody, making the body
	// replayable — the same shape the fleet worker's protocol POSTs have.
	resp, err := hc.Post(ts.URL, "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hits.Load() != 2 {
		t.Fatalf("backend saw %d requests, want 2 (original + duplicate)", hits.Load())
	}
	if in.Counts()["net-dup"] != 1 {
		t.Errorf("counts = %v", in.Counts())
	}
}

func TestTransportDelayHonorsContext(t *testing.T) {
	ts, hits := newBackend(t)
	in := New(3)
	hc := &http.Client{Transport: in.WrapTransport(nil, NetFaults{Delay: 1, DelayBy: 10 * time.Second})}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	start := time.Now()
	if _, err := hc.Do(req); err == nil {
		t.Fatal("delayed request ignored context cancellation")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("delay did not respect context: took %v", elapsed)
	}
	if hits.Load() != 0 {
		t.Fatalf("backend saw %d requests, want 0", hits.Load())
	}
}

func TestClockSkew(t *testing.T) {
	in := New(9)
	ck := in.Clock()
	before := ck.Now()
	ck.Skew(time.Hour)
	after := ck.Now()
	if d := after.Sub(before); d < 59*time.Minute {
		t.Fatalf("skewed clock advanced only %v", d)
	}
	if ck.Offset() != time.Hour {
		t.Fatalf("offset = %v", ck.Offset())
	}
	ck.Skew(-time.Hour)
	if ck.Offset() != 0 {
		t.Fatalf("offset after rewind = %v", ck.Offset())
	}
	if in.Counts()["clock-skew"] != 2 {
		t.Errorf("counts = %v", in.Counts())
	}
}
