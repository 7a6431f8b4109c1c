package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"
)

// ReadHeaderTimeout bounds how long the HTTP servers built here and in
// trustnetd wait for a request's header. Without it a client that
// trickles a header one byte at a time holds a connection and its
// goroutine forever (slowloris). Bodies and responses stay unbounded, so
// long polls keep working, and a keep-alive connection is unaffected
// while idle: its header clock starts at the next request's first byte.
const ReadHeaderTimeout = 5 * time.Second

// Handler returns an expvar-style HTTP handler that serves the
// registry's current Snapshot as indented JSON. cmd/experiments mounts
// it when -metrics-addr is set, so long runs can be inspected with
// `curl host:port/metrics` while jobs are still executing. The snapshot
// is taken per request; serving never blocks the hot paths beyond the
// registry mutex held for the copy.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Encoding errors mean the client went away; nothing to do.
		_ = enc.Encode(r.Snapshot())
	})
}

// Serve binds addr and serves registry snapshots at /metrics (and /) in
// a background goroutine. It returns the server and the bound address,
// so ":0" works for tests and smoke scripts. The caller ends serving
// with DrainServer (preferred: in-flight snapshot responses complete)
// or srv.Close (severs them).
func (r *Registry) Serve(addr string) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/", r.Handler())
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: ReadHeaderTimeout}
	go func() {
		// Serve's error after a graceful Shutdown is ErrServerClosed;
		// anything else surfaces on the next scrape, so it is dropped
		// rather than crashing the measurement run.
		_ = srv.Serve(ln)
	}()
	return srv, ln.Addr().String(), nil
}

// DrainServer gracefully shuts srv down with a bounded deadline:
// listeners close immediately, in-flight responses get up to timeout to
// complete (so a /metrics body is never severed mid-write, which
// srv.Close does), and whatever is still running when the deadline
// fires is cut off by the final Close. timeout <= 0 defaults to 2s.
func DrainServer(srv *http.Server, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := srv.Shutdown(ctx)
	if err == nil {
		return nil
	}
	// Deadline hit with requests still in flight: sever them rather
	// than hang the process exit.
	_ = srv.Close()
	return fmt.Errorf("obs: drain server: %w", err)
}
