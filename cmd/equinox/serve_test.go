package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"

	"equinox/internal/service"
)

// logLines collects the standard logger's output, where serve and worker
// announce the addresses they bound.
type logLines struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

// captureLog points the standard logger at a logLines until the test ends.
func captureLog(t *testing.T) *logLines {
	l := new(logLines)
	log.SetOutput(l)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	return l
}

func (l *logLines) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// await waits for a logged line matching re and returns its first group.
func (l *logLines) await(t *testing.T, re string) string {
	t.Helper()
	rx := regexp.MustCompile(re)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		l.mu.Lock()
		m := rx.FindStringSubmatch(l.buf.String())
		l.mu.Unlock()
		if m != nil {
			return m[1]
		}
	}
	t.Fatalf("nothing logged matches %q", re)
	return ""
}

// start runs `equinox args…` in the background; its result arrives on the
// returned channel.
func start(ctx context.Context, args ...string) <-chan error {
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args, io.Discard) }()
	return errc
}

// startFleet starts serve on an ephemeral port and one worker pulling from
// it with its debug listener on another, and returns both addresses and
// both commands' results.
func startFleet(t *testing.T, ctx context.Context, drain string) (serveAddr, debugAddr string, serveErr, workerErr <-chan error) {
	logs := captureLog(t)
	serveErr = start(ctx, "serve", "-addr", "127.0.0.1:0", "-workers", "1", "-drain", drain, "-log-level", "error")
	serveAddr = logs.await(t, `listening on (\S+)`)
	workerErr = start(ctx, "worker", "-coordinator", "http://"+serveAddr, "-name", "test-worker",
		"-poll", "50ms", "-heartbeat", "250ms", "-pprof-addr", "127.0.0.1:0", "-log-level", "error")
	debugAddr = logs.await(t, `pprof on http://(\S+)/debug/pprof/`)
	return serveAddr, debugAddr, serveErr, workerErr
}

// returnsNil waits up to budget for a command started by start to return,
// and requires it to return nil.
func returnsNil(t *testing.T, name string, errc <-chan error, budget time.Duration) {
	t.Helper()
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("%s returned %v after its context was cancelled", name, err)
		}
	case <-time.After(budget):
		t.Errorf("%s still running %v after its context was cancelled", name, budget)
	}
}

// TestStalledHeadersDisconnected: on serve's listener and on the worker's
// -pprof-addr listener alike, a client that opens a connection and never
// finishes its request headers is cut off by the ReadHeaderTimeout instead
// of holding the connection forever, and neither sets a WriteTimeout that
// would cut SSE streams or profiles. The behaviour is driven with a
// shortened timeout so the test does not wait out the production one.
func TestStalledHeadersDisconnected(t *testing.T) {
	srv := newHTTPServer(http.NewServeMux())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout ||
		readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set from the package bounds",
			srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout %v, ReadTimeout %v: streaming responses and long uploads must not be cut",
			srv.WriteTimeout, srv.ReadTimeout)
	}
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond

	ctx, cancel := context.WithCancel(context.Background())
	serveAddr, debugAddr, serveErr, workerErr := startFleet(t, ctx, "5s")
	for name, addr := range map[string]string{"serve": serveAddr, "worker -pprof-addr": debugAddr} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		// A request line and one header, but never the blank line that ends
		// them.
		if _, err := io.WriteString(conn, "GET /v1/metrics HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// The server may answer 408 before it hangs up; either way the read
		// must end in EOF well before the deadline, not in a timeout.
		if _, err := io.Copy(io.Discard, conn); err != nil {
			t.Errorf("%s: stalled client was not disconnected: %v", name, err)
		}
		conn.Close()
	}
	cancel()
	returnsNil(t, "worker", workerErr, 10*time.Second)
	returnsNil(t, "serve", serveErr, 10*time.Second)
}

// acceptSignal reports each connection its listener accepts.
type acceptSignal struct {
	net.Listener
	accepted chan struct{}
}

func (l acceptSignal) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted <- struct{}{}
	}
	return c, err
}

// TestShutdownClosesUnusedConns: a connection that never sends a request,
// such as a spare dial parked in a client's idle pool, does not hold
// Shutdown. http.Server alone waits 5 s for one.
func TestShutdownClosesUnusedConns(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := acceptSignal{inner, make(chan struct{}, 1)}
	srv := newHTTPServer(http.NewServeMux())
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	conn, err := net.Dial("tcp", inner.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	<-ln.accepted

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown with an unused connection open: %v", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		t.Errorf("Serve returned %v", err)
	}
}

// TestServeAndWorker pushes a tiny job through serve with a worker attached,
// all in process, then cancels their context: both must drain and return
// nil within serve's -drain budget.
func TestServeAndWorker(t *testing.T) {
	const drain = 5 * time.Second
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveAddr, _, serveErr, workerErr := startFleet(t, ctx, drain.String())
	base := "http://" + serveAddr

	spec, _ := json.Marshal(service.JobSpec{
		Width: 4, Height: 4, NumCBs: 2,
		Schemes: []string{"SingleBase"}, Benchmarks: []string{"kmeans"}, InstructionsPerPE: 100,
	})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var sub service.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d, %v", resp.StatusCode, err)
	}

	var st service.JobStatus
	for deadline := time.Now().Add(time.Minute); !st.Status.Finished(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after a minute", sub.ID, st.Status)
		}
		resp, err := http.Get(base + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		st = service.JobStatus{}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.Status != service.JobDone || len(st.Result) == 0 {
		t.Fatalf("job finished %s (%s), %d result bytes", st.Status, st.Error, len(st.Result))
	}

	cancel()
	returnsNil(t, "worker", workerErr, drain)
	returnsNil(t, "serve", serveErr, drain)
}
