package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestStalledHeadersDisconnected: a client that opens a connection and never
// finishes its request headers is cut off by the listener's
// ReadHeaderTimeout instead of holding the connection forever, and the
// server sets no WriteTimeout that would cut SSE streams. The behaviour is
// driven with a shortened timeout so the test does not wait out the
// production one.
func TestStalledHeadersDisconnected(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout ||
		readHeaderTimeout <= 0 || idleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set from the constants",
			srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout %v, ReadTimeout %v: streaming responses and long uploads must not be cut",
			srv.WriteTimeout, srv.ReadTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A request line and one header, but never the blank line that ends them.
	if _, err := io.WriteString(conn, "GET /v1/metrics HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// The server may answer 408 before it hangs up; either way the read must
	// end in EOF well before the deadline, not in a timeout.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("stalled client was not disconnected: %v", err)
	}
}
