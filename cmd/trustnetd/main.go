// Command trustnetd is the long-lived measurement daemon: an HTTP
// service exposing the graph registry, the async measurement queue over
// the typed job layer, the content-addressed artifact cache, /metrics,
// and a self-describing OpenAPI document.
//
// Usage:
//
//	trustnetd -addr :8080 -data out/daemon/data -out out/daemon
//
// With -addr :0 the kernel picks a free port; -addr-file writes the
// bound address to a file so scripts can discover it. -out roots the
// artifact cache at <out>/cache; a job's artifact there, files inside,
// is the one copy of its output, served by GET /v1/jobs/{id}/artifact.
// SIGTERM (or SIGINT) drains: queued measurements finish, in-flight
// responses complete, then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/trustnet/trustnet/internal/trustnetd"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address (\":0\" picks a free port)")
		addrFile      = flag.String("addr-file", "", "write the bound address to this file once listening")
		data          = flag.String("data", "out/daemon/data", "directory holding registered graph files")
		out           = flag.String("out", "out/daemon", "output directory: the artifact cache, every job's files inside, lives under <out>/cache")
		cacheMaxBytes = flag.Int64("cache-max-bytes", 0, "artifact cache byte cap, oldest evicted first (0 = unbounded)")
		workers       = flag.Int("workers", 2, "measurement worker-pool size")
		queueDepth    = flag.Int("queue-depth", 256, "maximum queued-but-unstarted measurements")
		jobTimeout    = flag.Duration("job-timeout", 10*time.Minute, "per-job measurement deadline")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "shutdown budget for queued measurements")
	)
	flag.Parse()

	srv, err := trustnetd.New(trustnetd.Config{
		DataDir:       *data,
		CacheDir:      filepath.Join(*out, "cache"),
		CacheMaxBytes: *cacheMaxBytes,
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		JobTimeout:    *jobTimeout,
		DrainTimeout:  *drainTimeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	err = srv.Serve(ctx, *addr, func(bound string) {
		fmt.Printf("trustnetd listening on %s\n", bound)
		if *addrFile != "" {
			if werr := os.WriteFile(*addrFile, []byte(bound), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "trustnetd: write addr file: %v\n", werr)
			}
		}
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("trustnetd drained cleanly")
}
