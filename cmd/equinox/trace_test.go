package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileSingleRecord(t *testing.T) {
	for _, p := range []float64{0.1, 50, 99.9, 100} {
		if v := percentile([]int64{42}, p); v != 42 {
			t.Errorf("p%v = %d, want 42 (only record)", p, v)
		}
	}
}

func TestPercentileExactBoundaries(t *testing.T) {
	// Four records: each p = k/4*100 lands exactly on a rank boundary and
	// must return the k-th smallest latency; values just below a boundary
	// must not round up past it.
	sorted := []int64{10, 20, 30, 40}
	cases := []struct {
		p    float64
		want int64
	}{
		{25, 10}, {50, 20}, {75, 30}, {100, 40},
		{24.999, 10}, {25.001, 10}, {50.001, 20}, {1, 10},
	}
	for _, c := range cases {
		if v := percentile(sorted, c.p); v != c.want {
			t.Errorf("p%v = %d, want %d", c.p, v, c.want)
		}
	}
}

// TestArtifactFetchCancels: a server that accepts a -spans or -telemetry
// request and never answers does not hang trace; cancelling its context
// (Ctrl-C) aborts the fetch with an error and no output file.
func TestArtifactFetchCancels(t *testing.T) {
	arrived := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-r.Context().Done() // never answers; returns once the client hangs up
	}))
	defer srv.Close()
	defer srv.CloseClientConnections() // a fetch that ignored its context

	for _, mode := range []string{"-spans", "-telemetry"} {
		t.Run(mode, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "artifact")
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			errc := make(chan error, 1)
			go func() {
				errc <- run(ctx, []string{"trace", mode, "job1", "-server", srv.URL, mode + "-out", out}, io.Discard)
			}()
			<-arrived
			cancel()
			select {
			case err := <-errc:
				if err == nil {
					t.Error("cancelled fetch returned nil")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("fetch still blocked 10s after its context was cancelled")
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("cancelled fetch created %s (%v)", out, err)
			}
		})
	}
}
