package trustnetd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"github.com/trustnet/trustnet/internal/core"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
)

// MeasureConfig is the measurement catalog's config (core.MeasureConfig),
// the "config" body of a JobRequest.
type MeasureConfig = core.MeasureConfig

// Jobs returns the measurement catalog's registry bound to g under cfg
// (core.Jobs).
func Jobs(g graph.View, cfg MeasureConfig) (*jobs.Registry, error) { return core.Jobs(g, cfg) }

// GraphInfo describes one registered graph: the canonical topology
// fingerprint (the graph half of every artifact cache key), the size of
// the mmap-backed TNG2 file serving it, and how it arrived.
type GraphInfo struct {
	// Name is the registry name the graph was registered under.
	Name string `json:"name"`
	// Fingerprint is the canonical graph.Fingerprint of the topology —
	// identical for equal graphs regardless of source or substrate.
	Fingerprint string `json:"fingerprint"`
	// Nodes and Edges size the graph.
	Nodes int   `json:"nodes"`
	Edges int64 `json:"edges"`
	// Bytes is the on-disk size of the backing TNG2 file.
	Bytes int64 `json:"bytes"`
	// Source records provenance: "upload:tng2", "upload:tng1", or
	// "generate:<model>".
	Source string `json:"source"`
}

// GraphList is the graph-listing response.
type GraphList struct {
	Graphs []GraphInfo `json:"graphs"`
}

// GenerateRequest asks the daemon to synthesize a graph with one of the
// streaming generators, writing it straight to a mmap-ready TNG2 file
// in bounded memory. Model selects the generator; the other fields are
// per-model knobs (unused ones are ignored).
type GenerateRequest struct {
	// Model is one of "ba", "rmat", "sbm", "clustered-pa".
	Model string `json:"model"`
	// Nodes and Attach parameterize "ba" (attach defaults to 8).
	Nodes  int `json:"nodes,omitempty"`
	Attach int `json:"attach,omitempty"`
	// Scale, Edges, A, B, C, Noise parameterize "rmat" (the quadrant
	// probabilities default to the classic 0.57/0.19/0.19 skew).
	Scale int     `json:"scale,omitempty"`
	Edges int64   `json:"edges,omitempty"`
	A     float64 `json:"a,omitempty"`
	B     float64 `json:"b,omitempty"`
	C     float64 `json:"c,omitempty"`
	Noise float64 `json:"noise,omitempty"`
	// BlockSizes, PIn, POut parameterize "sbm".
	BlockSizes []int   `json:"block_sizes,omitempty"`
	PIn        float64 `json:"p_in,omitempty"`
	POut       float64 `json:"p_out,omitempty"`
	// Communities, CommunitySize, Bridges, Periphery parameterize
	// "clustered-pa" (Attach is shared with "ba").
	Communities   int `json:"communities,omitempty"`
	CommunitySize int `json:"community_size,omitempty"`
	Bridges       int `json:"bridges,omitempty"`
	Periphery     int `json:"periphery,omitempty"`
	// Seed makes generation deterministic; 0 means 1.
	Seed int64 `json:"seed,omitempty"`
}

// JobRequest enqueues one measurement against a registered graph.
type JobRequest struct {
	// Graph names the target by registry name or canonical fingerprint.
	Graph string `json:"graph"`
	// Job is a measurement name from the catalog (mixing, expansion,
	// coreness, slem); near-misses are answered with a suggestion.
	Job string `json:"job"`
	// Config tunes the measurement; zero fields take the catalog
	// defaults, and an out-of-range field is answered with 400.
	Config MeasureConfig `json:"config"`
}

// JobStatus is the lifecycle snapshot of one queued measurement. The
// two fingerprints plus the job name identify the artifact cache slot
// the result lives in, so equal requests are answerable from cache (or
// deduplicated in flight) without re-running any kernel.
type JobStatus struct {
	// ID is the daemon-assigned job identifier ("j-000001").
	ID string `json:"id"`
	// Job and Graph echo the request (Graph as the key the client used).
	Job   string `json:"job"`
	Graph string `json:"graph"`
	// GraphFingerprint and ConfigFingerprint are the artifact cache key
	// halves the run is addressed under.
	GraphFingerprint  string `json:"graph_fingerprint"`
	ConfigFingerprint string `json:"config_fingerprint"`
	// State is queued, running, done, or failed.
	State string `json:"state"`
	// Cached reports whether the result was replayed from the artifact
	// store (or a concurrent identical run) without executing.
	Cached bool `json:"cached"`
	// WallSeconds is the wall-clock run time.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// Error carries the failure message when State is failed.
	Error string `json:"error,omitempty"`
}

// JobList is the job-listing response: the retained jobs, in enqueue
// order.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
}

// CatalogEntry describes one measurement the daemon can run.
type CatalogEntry struct {
	// Name is what JobRequest.Job must spell.
	Name string `json:"name"`
	// Summary states what the measurement computes, with the paper
	// section it reproduces.
	Summary string `json:"summary"`
	// DefaultFingerprint is the config fingerprint of the default
	// MeasureConfig — what an empty request config resolves to.
	DefaultFingerprint string `json:"default_fingerprint"`
}

// Catalog is the measurement-catalog response.
type Catalog struct {
	Jobs []CatalogEntry `json:"jobs"`
}

// ErrorResponse is the uniform error body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// maxUploadBytes caps graph-upload request bodies (1 GiB — enough for a
// hundred-million-edge TNG2 file, small enough to bound a hostile body),
// and the TNG2 image a TNG1 upload converts to.
const maxUploadBytes = 1 << 30

// maxRequestBytes caps JSON request bodies. The request types hold a
// few scalars, and SBM's block_sizes is their only list.
const maxRequestBytes = 1 << 20

// writeJSON answers with an indented JSON body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps registry sentinels and over-cap bodies onto HTTP
// statuses and answers with the uniform error envelope.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	switch {
	case errors.Is(err, errGraphNotFound):
		status = http.StatusNotFound
	case errors.Is(err, errGraphExists):
		status = http.StatusConflict
	case errors.As(err, &tooLarge):
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// decodeBody strictly decodes a JSON request body of at most
// maxRequestBytes into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("request body: %w", err)
	}
	return nil
}

// handleListGraphs answers GET /v1/graphs.
func (s *Server) handleListGraphs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, GraphList{Graphs: s.graphs.list()})
}

// handleGetGraph answers GET /v1/graphs/{name} (name or fingerprint).
func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	info, err := s.graphs.get(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleUploadGraph answers PUT /v1/graphs/{name}: the body is a graph
// file, TNG2 by default or TNG1 with ?format=tng1 (converted through
// the streaming pipeline in bounded memory). The file is checksum- and
// invariant-verified by the mmap open before the name becomes visible.
func (s *Server) handleUploadGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "tng2"
	}
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	var build func(path string) error
	switch format {
	case "tng2":
		build = func(path string) error { return copyToFile(body, path) }
	case "tng1":
		build = func(path string) error {
			tmp := path + ".upload.tng"
			// Removed on every path: a body that fails mid-copy leaves a
			// partial file, and register removes only the .tng2 path.
			defer os.Remove(tmp)
			if err := copyToFile(body, tmp); err != nil {
				return err
			}
			es, err := gen.StreamTNG1(tmp)
			if err != nil {
				return err
			}
			// A TNG1 header's node count is bounded by 2^31, not by the
			// body, so a few bytes can declare a graph whose offsets
			// alone take gigabytes: refuse an image over the upload cap
			// before the writer allocates anything.
			if size := graph.TNG2Size(es.NumNodes(), es.NumEdges()); size > maxUploadBytes {
				return fmt.Errorf("tng1 upload declares %d nodes and %d edges, a %d-byte TNG2 image: %w",
					es.NumNodes(), es.NumEdges(), size, &http.MaxBytesError{Limit: maxUploadBytes})
			}
			_, err = gen.StreamToFile(es, path)
			return err
		}
	default:
		writeError(w, fmt.Errorf("unknown format %q (want tng2 or tng1)", format))
		return
	}
	info, err := s.graphs.register(name, "upload:"+format, build)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// copyToFile streams r to a new file at path.
func copyToFile(r io.Reader, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return fmt.Errorf("upload: %w", err)
	}
	return f.Close()
}

// handleGenerateGraph answers POST /v1/graphs/{name}/generate: it runs
// the requested streaming generator through the external-sort CSR
// writer, so even million-node graphs are synthesized directly to their
// mmap-ready file without materializing in RAM.
func (s *Server) handleGenerateGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req GenerateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	es, err := streamFor(req)
	if err != nil {
		writeError(w, err)
		return
	}
	info, err := s.graphs.register(name, "generate:"+req.Model, func(path string) error {
		_, err := gen.StreamToFile(es, path)
		return err
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

// streamFor resolves a GenerateRequest to its streaming generator,
// applying the daemon defaults for omitted knobs.
func streamFor(req GenerateRequest) (gen.EdgeStream, error) {
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	switch req.Model {
	case "ba":
		attach := req.Attach
		if attach == 0 {
			attach = 8
		}
		return gen.StreamBA(req.Nodes, attach, seed)
	case "rmat":
		a, b, c := req.A, req.B, req.C
		if a == 0 && b == 0 && c == 0 {
			a, b, c = 0.57, 0.19, 0.19
		}
		return gen.StreamRMAT(gen.RMATConfig{
			Scale: req.Scale, Edges: req.Edges,
			A: a, B: b, C: c, Noise: req.Noise, Seed: seed,
		})
	case "sbm":
		return gen.StreamSBM(gen.SBMConfig{
			BlockSizes: req.BlockSizes, PIn: req.PIn, POut: req.POut, Seed: seed,
		})
	case "clustered-pa":
		return gen.StreamClusteredPA(gen.ClusteredPAConfig{
			Communities: req.Communities, CommunitySize: req.CommunitySize,
			Attach: req.Attach, Bridges: req.Bridges, Periphery: req.Periphery,
			Seed: seed,
		})
	default:
		return nil, fmt.Errorf("unknown model %q (want ba, rmat, sbm, or clustered-pa)", req.Model)
	}
}

// handleEvictGraph answers DELETE /v1/graphs/{name}. The name leaves
// the registry immediately; the unmap and file removal are deferred
// past any measurement still holding the view.
func (s *Server) handleEvictGraph(w http.ResponseWriter, r *http.Request) {
	info, err := s.graphs.evict(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleCatalog answers GET /v1/catalog with the measurement battery.
func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	reg, err := Jobs(nil, MeasureConfig{})
	if err != nil {
		writeError(w, err)
		return
	}
	cat := Catalog{}
	for _, m := range core.Catalog() {
		j, err := reg.Lookup(m.Name)
		if err != nil {
			writeError(w, err)
			return
		}
		cat.Jobs = append(cat.Jobs, CatalogEntry{
			Name:               m.Name,
			Summary:            m.Summary,
			DefaultFingerprint: j.Fingerprint(),
		})
	}
	writeJSON(w, http.StatusOK, cat)
}

// handleEnqueueJob answers POST /v1/jobs: it rejects an out-of-range
// config, pins the target graph, resolves the job name through the
// per-graph jobs.Registry (so typos get nearest-name suggestions), and
// admits the bound job to the queue.
// The graph stays pinned — safe from eviction-unmap — until the run
// finishes. A full queue answers 429 with Retry-After, so a client can
// tell "retry shortly" from a draining daemon's 503.
func (s *Server) handleEnqueueJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if err := req.Config.Validate(); err != nil {
		writeError(w, err)
		return
	}
	info, mapped, release, err := s.graphs.acquire(req.Graph)
	if err != nil {
		writeError(w, err)
		return
	}
	reg, err := Jobs(mapped, req.Config)
	if err != nil {
		release()
		writeError(w, err)
		return
	}
	j, err := reg.Lookup(req.Job)
	if err != nil {
		release()
		writeError(w, err)
		return
	}
	st, err := s.queue.enqueue(j, info, req.Graph, release)
	if errors.Is(err, errQueueFull) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error()})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleListJobs answers GET /v1/jobs.
func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, JobList{Jobs: s.queue.list()})
}

// handleGetJob answers GET /v1/jobs/{id}. An optional ?wait=<duration>
// blocks up to that long for the job to finish, turning the poll loop
// into a single long poll.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var (
		st  JobStatus
		err error
	)
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, perr := time.ParseDuration(waitStr)
		if perr != nil || d < 0 {
			writeError(w, fmt.Errorf("invalid wait %q", waitStr))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		st, err = s.queue.wait(ctx, id)
	} else {
		st, err = s.queue.get(id)
	}
	if err != nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobArtifact answers GET /v1/jobs/{id}/artifact with the stored
// artifact envelope, byte-for-byte as the Store wrote it. Because the
// envelope is content-addressed by (job, graph, config), two identical
// requests — one computed, one replayed from cache — serve identical
// bytes, which is exactly what the daemon smoke test asserts.
func (s *Server) handleJobArtifact(w http.ResponseWriter, r *http.Request) {
	st, err := s.queue.get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
		return
	}
	if st.State != StateDone {
		writeJSON(w, http.StatusConflict,
			ErrorResponse{Error: fmt.Sprintf("job %s is %s, artifact available when done", st.ID, st.State)})
		return
	}
	key := jobs.Key(st.Job, st.GraphFingerprint, st.ConfigFingerprint)
	f, err := os.Open(s.store.Path(st.Job, key))
	if err != nil {
		writeJSON(w, http.StatusNotFound,
			ErrorResponse{Error: fmt.Sprintf("artifact for job %s not in store", st.ID)})
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = io.Copy(w, f)
}

// handleHealthz answers GET /healthz for liveness probes.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleOpenAPI answers GET /v1/openapi.json with the API document
// derived from the route table's typed request/response structs.
func (s *Server) handleOpenAPI(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(s.openapi)
}
