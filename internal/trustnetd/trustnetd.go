// Package trustnetd is the long-lived measurement service over the
// typed job layer: an HTTP daemon that turns the repo's one-shot
// measurement pipeline into an always-on API.
//
// The daemon exposes three surfaces. A graph registry accepts uploads
// (TNG2 directly, TNG1 through the streaming converter) and synthesis
// requests (the gen streaming generators through the external-sort CSR
// writer), keys every entry by the canonical graph.Fingerprint, and
// holds each graph as a zero-copy mmap view — a million-node graph
// serves measurements without ever loading into daemon RAM, and
// eviction is refcounted so a view is never unmapped under a running
// kernel. An async measurement queue resolves job names through a
// jobs.Registry, runs them through the jobs.Runner with single-flight
// dedup and the content-addressed artifact Store — identical requests
// are answered from cache byte-for-byte, concurrent identical requests
// execute once — each under its own deadline (Config.JobTimeout); a
// failed run is a failed job, and an identical request runs it again.
// The queue keeps every queued and running job and the newest 4,096
// finished ones; a forgotten job's request replays from the cache.
// Typed routes describe themselves: an OpenAPI document is
// derived by reflection from the request/response structs, /metrics
// serves the internal/obs registry, and SIGTERM drains queued work and
// in-flight responses before exit.
package trustnetd

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/obs"
)

// Config sizes and wires a Server. The zero value of every field takes
// a sensible default from New.
type Config struct {
	// DataDir holds registered graph files (TNG2). Required.
	DataDir string
	// CacheDir holds the content-addressed artifact store, the one copy
	// of every job's output: the artifact route serves it, files inside.
	// Required.
	CacheDir string
	// CacheMaxBytes caps the artifact store; 0 leaves it unbounded.
	CacheMaxBytes int64
	// Workers is the measurement worker-pool size (default 2).
	Workers int
	// QueueDepth bounds queued-but-unstarted jobs (default 256).
	QueueDepth int
	// JobTimeout is the per-job measurement deadline (default 10m).
	JobTimeout time.Duration
	// DrainTimeout bounds shutdown: queued jobs get this long to finish
	// before in-flight measurements are canceled (default 30s).
	DrainTimeout time.Duration
}

// Server is the daemon: graph registry, measurement queue, artifact
// store, and the routed HTTP surface over them.
type Server struct {
	cfg     Config
	graphs  *graphRegistry
	queue   *queue
	store   *jobs.Store
	mux     *http.ServeMux
	openapi []byte
}

// New builds a Server from cfg, creating the data directory and
// starting the measurement worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" || cfg.CacheDir == "" {
		return nil, fmt.Errorf("trustnetd: DataDir and CacheDir are required")
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	graphs, err := newGraphRegistry(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	store := jobs.NewStore(cfg.CacheDir)
	if cfg.CacheMaxBytes > 0 {
		store.SetMaxBytes(cfg.CacheMaxBytes)
	}
	s := &Server{
		cfg:    cfg,
		graphs: graphs,
		queue:  newQueue(store, cfg.Workers, cfg.QueueDepth, cfg.JobTimeout),
		store:  store,
	}
	routes := s.routes()
	s.mux = buildMux(routes)
	doc, err := openAPIDocument(routes)
	if err != nil {
		return nil, fmt.Errorf("trustnetd: openapi: %w", err)
	}
	s.openapi = doc
	return s, nil
}

// routes is the typed route table: every API operation with its method,
// Go 1.22 ServeMux pattern, success status, and request/response struct
// types. The mux
// and the OpenAPI document are both derived from it, so the spec cannot
// drift from the code.
func (s *Server) routes() []route {
	return []route{
		{"GET", "/v1/graphs", http.StatusOK, "List registered graphs",
			nil, GraphList{}, s.handleListGraphs},
		{"GET", "/v1/graphs/{name}", http.StatusOK, "Get one graph by name or fingerprint",
			nil, GraphInfo{}, s.handleGetGraph},
		{"PUT", "/v1/graphs/{name}", http.StatusCreated, "Upload a graph file (TNG2, or TNG1 with ?format=tng1)",
			nil, GraphInfo{}, s.handleUploadGraph},
		{"POST", "/v1/graphs/{name}/generate", http.StatusCreated, "Synthesize a graph with a streaming generator",
			GenerateRequest{}, GraphInfo{}, s.handleGenerateGraph},
		{"DELETE", "/v1/graphs/{name}", http.StatusOK, "Evict a graph (deferred past running measurements)",
			nil, GraphInfo{}, s.handleEvictGraph},
		{"GET", "/v1/catalog", http.StatusOK, "List the measurement catalog",
			nil, Catalog{}, s.handleCatalog},
		{"POST", "/v1/jobs", http.StatusAccepted, "Enqueue a measurement against a registered graph",
			JobRequest{}, JobStatus{}, s.handleEnqueueJob},
		{"GET", "/v1/jobs", http.StatusOK, fmt.Sprintf("List the retained jobs in enqueue order: every queued and running job and the newest %d finished ones", maxFinishedTasks),
			nil, JobList{}, s.handleListJobs},
		{"GET", "/v1/jobs/{id}", http.StatusOK, "Poll one job (?wait=30s long-polls); a forgotten finished job answers 404, and re-POSTing its request replays the cached artifact",
			nil, JobStatus{}, s.handleGetJob},
		{"GET", "/v1/jobs/{id}/artifact", http.StatusOK, "Fetch the stored artifact envelope, byte-identical across cache replays",
			nil, nil, s.handleJobArtifact},
		{"GET", "/healthz", http.StatusOK, "Liveness probe",
			nil, nil, s.handleHealthz},
		{"GET", "/v1/openapi.json", http.StatusOK, "This document",
			nil, nil, s.handleOpenAPI},
	}
}

// buildMux mounts the route table plus /metrics on a Go 1.22 pattern
// mux (method-qualified patterns, {wildcard} path values).
func buildMux(routes []route) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.method+" "+rt.pattern, rt.handler)
	}
	mux.Handle("GET /metrics", obs.Default().Handler())
	return mux
}

// Handler returns the daemon's routed HTTP surface, for embedding and
// httptest.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve binds addr and serves until ctx is canceled, then drains: the
// measurement queue finishes (bounded by DrainTimeout), in-flight HTTP
// responses complete (obs.DrainServer — never severed by Close), and
// every idle graph view is unmapped. The bound address is reported
// through ready, so ":0" callers can discover the port.
func (s *Server) Serve(ctx context.Context, addr string, ready func(addr string)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("trustnetd: listen %s: %w", addr, err)
	}
	if ready != nil {
		ready(ln.Addr().String())
	}
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: obs.ReadHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
	case err := <-errc:
		s.Close()
		return fmt.Errorf("trustnetd: serve: %w", err)
	}
	// Stop accepting and finish queued measurements first: their final
	// status must be observable through the still-serving API.
	s.queue.drain(s.cfg.DrainTimeout)
	err = obs.DrainServer(srv, 5*time.Second)
	s.graphs.closeAll()
	return err
}

// Close drains the queue and unmaps idle graphs without an HTTP server
// to tear down — the shutdown path for embedded (httptest) use.
func (s *Server) Close() {
	s.queue.drain(s.cfg.DrainTimeout)
	s.graphs.closeAll()
}
