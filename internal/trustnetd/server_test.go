package trustnetd

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/obs"
)

// newTestServer builds a daemon over temp dirs and serves it through
// httptest.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	root := t.TempDir()
	s, err := New(Config{
		DataDir:      filepath.Join(root, "data"),
		CacheDir:     filepath.Join(root, "cache"),
		Workers:      2,
		JobTimeout:   time.Minute,
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// doJSON issues a request with an optional JSON body and decodes the
// JSON response into out, returning the status code.
func doJSON(t *testing.T, method, url string, in, out any) int {
	t.Helper()
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decode %q: %v", method, url, data, err)
		}
	}
	return resp.StatusCode
}

// generateGraph registers a small deterministic BA graph under name.
func generateGraph(t *testing.T, ts *httptest.Server, name string) GraphInfo {
	t.Helper()
	var info GraphInfo
	code := doJSON(t, "POST", ts.URL+"/v1/graphs/"+name+"/generate",
		GenerateRequest{Model: "ba", Nodes: 500, Attach: 4, Seed: 7}, &info)
	if code != http.StatusCreated {
		t.Fatalf("generate %s: status %d", name, code)
	}
	return info
}

// waitDone long-polls a job until it leaves the queue/running states.
func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st JobStatus
		code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"?wait=5s", nil, &st)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d", id, code)
		}
		if st.State == StateDone || st.State == StateFailed {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
	}
}

// fetchArtifact returns the raw artifact envelope bytes of a done job.
func fetchArtifact(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifact")
	if err != nil {
		t.Fatalf("artifact %s: %v", id, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("artifact %s: read: %v", id, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s: status %d: %s", id, resp.StatusCode, data)
	}
	return data
}

// uploadGraph PUTs body as a graph file in the given format and returns
// the status and the decoded response.
func uploadGraph(t *testing.T, ts *httptest.Server, name, format string, body []byte) (int, GraphInfo) {
	t.Helper()
	req, err := http.NewRequest("PUT", ts.URL+"/v1/graphs/"+name+"?format="+format, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	defer resp.Body.Close()
	var info GraphInfo
	if resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatalf("decode upload response: %v", err)
		}
	}
	return resp.StatusCode, info
}

// TestUploadMatchesGeneratedFingerprint uploads a locally generated copy
// of the daemon's generated graph, as TNG2 and as TNG1, and expects each
// to carry the canonical fingerprint of the daemon-generated copy of the
// same model/seed — same topology, same identity, regardless of how the
// graph arrived.
func TestUploadMatchesGeneratedFingerprint(t *testing.T) {
	_, ts := newTestServer(t)
	gen1 := generateGraph(t, ts, "generated")

	es, err := gen.StreamBA(500, 4, 7)
	if err != nil {
		t.Fatalf("StreamBA: %v", err)
	}
	local := filepath.Join(t.TempDir(), "local.tng2")
	if _, err := gen.StreamToFile(es, local); err != nil {
		t.Fatalf("StreamToFile: %v", err)
	}
	tng2, err := os.ReadFile(local)
	if err != nil {
		t.Fatalf("read local: %v", err)
	}
	g, err := gen.Build(es)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var tng1 bytes.Buffer
	if err := graph.WriteBinary(&tng1, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}

	for _, tc := range []struct {
		format string
		body   []byte
	}{
		{"tng2", tng2},
		{"tng1", tng1.Bytes()},
	} {
		t.Run(tc.format, func(t *testing.T) {
			code, up := uploadGraph(t, ts, "uploaded-"+tc.format, tc.format, tc.body)
			if code != http.StatusCreated {
				t.Fatalf("upload: status %d", code)
			}
			if up.Fingerprint != gen1.Fingerprint {
				t.Fatalf("fingerprint mismatch: uploaded %s vs generated %s", up.Fingerprint, gen1.Fingerprint)
			}
			if up.Nodes != 500 || up.Edges == 0 || up.Source != "upload:"+tc.format {
				t.Fatalf("bad uploaded info: %+v", up)
			}
		})
	}

	var list GraphList
	doJSON(t, "GET", ts.URL+"/v1/graphs", nil, &list)
	if len(list.Graphs) != 3 {
		t.Fatalf("want 3 graphs, got %d", len(list.Graphs))
	}

	// Lookup by fingerprint resolves the same way as by name.
	var byFP GraphInfo
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/"+gen1.Fingerprint, nil, &byFP); code != http.StatusOK {
		t.Fatalf("lookup by fingerprint: status %d", code)
	}
}

// cutBody yields its data and then fails, like a client connection that
// drops mid-upload.
type cutBody struct{ r io.Reader }

func (b *cutBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		return n, errors.New("connection reset mid-upload")
	}
	return n, err
}

// TestFailedUploadLeavesNothing sends uploads that fail — a body cut off
// after 4 KiB in either format, a TNG1 file with one flipped payload
// byte, and a valid 14-byte TNG1 file that declares 2^31 nodes and no
// edges, whose TNG2 image would be 16 GiB of offsets. Each must answer
// 400, or 413 for the image over the upload cap (before the writer
// allocates anything), register nothing, and leave the data directory
// empty.
func TestFailedUploadLeavesNothing(t *testing.T) {
	g, err := gen.BarabasiAlbert(500, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(buf.Bytes())
	flipped[len(flipped)/2] ^= 0x04
	huge := binary.AppendUvarint([]byte("TNG1"), 1<<31)
	huge = binary.AppendUvarint(huge, 0)
	huge = binary.LittleEndian.AppendUint32(huge, crc32.ChecksumIEEE(huge))

	for _, tc := range []struct {
		name, format string
		body         io.Reader
		status       int
	}{
		{"tng2-cut", "tng2", &cutBody{bytes.NewReader(make([]byte, 4<<10))}, http.StatusBadRequest},
		{"tng1-cut", "tng1", &cutBody{bytes.NewReader(make([]byte, 4<<10))}, http.StatusBadRequest},
		{"tng1-flipped", "tng1", bytes.NewReader(flipped), http.StatusBadRequest},
		{"tng1-over-image-cap", "tng1", bytes.NewReader(huge), http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestServer(t)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("PUT", "/v1/graphs/g?format="+tc.format, tc.body))
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			rec = httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/graphs", nil))
			var list GraphList
			if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
				t.Fatalf("decode graph list: %v", err)
			}
			if len(list.Graphs) != 0 {
				t.Errorf("failed upload registered %+v", list.Graphs)
			}
			left, err := os.ReadDir(s.cfg.DataDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range left {
				t.Errorf("failed upload left %s in the data dir", e.Name())
			}
		})
	}
}

// TestListJobsEnqueueOrderPastSixDigits lists jobs whose IDs cross
// from six digits to seven: j-1000000 must follow j-999999, although
// it sorts before it as a string.
func TestListJobsEnqueueOrderPastSixDigits(t *testing.T) {
	s, ts := newTestServer(t)
	generateGraph(t, ts, "g")
	s.queue.mu.Lock()
	s.queue.nextID = 999998
	s.queue.mu.Unlock()
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		var st JobStatus
		cfg := MeasureConfig{Seed: seed, Sources: 2, MaxSteps: 5}
		if code := doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{Graph: "g", Job: "mixing", Config: cfg}, &st); code != http.StatusAccepted {
			t.Fatalf("enqueue: status %d", code)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitDone(t, ts, id)
	}
	var list JobList
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var got []string
	for _, st := range list.Jobs {
		got = append(got, st.ID)
	}
	want := []string{"j-999999", "j-1000000", "j-1000001"}
	if !slices.Equal(ids, want) || !slices.Equal(got, want) {
		t.Fatalf("enqueued %v and listed %v, want %v both times", ids, got, want)
	}
}

// TestJobMatchesDirectRunnerBytes runs mixing through the daemon and
// through a jobs.Runner directly, and expects the daemon's artifact
// endpoint to serve exactly the bytes the Store writes — the HTTP
// surface adds nothing and loses nothing.
func TestJobMatchesDirectRunnerBytes(t *testing.T) {
	s, ts := newTestServer(t)
	info := generateGraph(t, ts, "g")
	cfg := MeasureConfig{Seed: 3, Sources: 4, MaxSteps: 30}

	var st JobStatus
	code := doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{Graph: "g", Job: "mixing", Config: cfg}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("enqueue: status %d", code)
	}
	st = waitDone(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	if st.Cached {
		t.Fatalf("first run reported cached")
	}
	viaHTTP := fetchArtifact(t, ts, st.ID)

	// Direct run against the same graph file with an independent store.
	s.graphs.mu.Lock()
	graphPath := s.graphs.byName["g"].mapped.Path()
	s.graphs.mu.Unlock()
	mg, err := graph.OpenMapped(graphPath)
	if err != nil {
		t.Fatalf("OpenMapped: %v", err)
	}
	defer mg.Close()
	reg, err := Jobs(mg, cfg)
	if err != nil {
		t.Fatalf("Jobs: %v", err)
	}
	j, err := reg.Lookup("mixing")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	store := jobs.NewStore(filepath.Join(t.TempDir(), "cache"))
	runner := &jobs.Runner{
		Cache:  store,
		Env:    jobs.Env{GraphFingerprint: info.Fingerprint},
		Stdout: io.Discard,
	}
	if _, err := runner.Run(context.Background(), j); err != nil {
		t.Fatalf("direct run: %v", err)
	}
	direct, err := os.ReadFile(store.Path("mixing", jobs.Key("mixing", info.Fingerprint, j.Fingerprint())))
	if err != nil {
		t.Fatalf("read direct envelope: %v", err)
	}
	if !bytes.Equal(viaHTTP, direct) {
		t.Fatalf("daemon artifact differs from direct runner envelope (%d vs %d bytes)", len(viaHTTP), len(direct))
	}
}

// TestJobFilesOnlyInCache lays the daemon's directories out as
// cmd/trustnetd does, with the cache at <out>/cache, and runs a mixing
// job: afterwards <out> holds only cache/, since the cached artifact is
// the one copy of the job's files, and the artifact route serves it with
// mixing.csv inside.
func TestJobFilesOnlyInCache(t *testing.T) {
	root := t.TempDir()
	out := filepath.Join(root, "out")
	s, err := New(Config{
		DataDir:      filepath.Join(root, "data"),
		CacheDir:     filepath.Join(out, "cache"),
		Workers:      1,
		JobTimeout:   time.Minute,
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	generateGraph(t, ts, "g")
	var st JobStatus
	code := doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{Graph: "g", Job: "mixing", Config: MeasureConfig{Seed: 3, Sources: 4, MaxSteps: 30}}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("enqueue: status %d", code)
	}
	if st = waitDone(t, ts, st.ID); st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	entries, err := os.ReadDir(out)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !slices.Equal(names, []string{"cache"}) {
		t.Fatalf("%s holds %v after a job, want only cache", out, names)
	}
	var a jobs.Artifact
	if err := json.Unmarshal(fetchArtifact(t, ts, st.ID), &a); err != nil {
		t.Fatal(err)
	}
	if len(a.Files) != 1 || a.Files[0].Path != "mixing.csv" || len(a.Files[0].Data) == 0 {
		t.Fatalf("artifact files %v, want mixing.csv", a.Files)
	}
}

// TestSLEMArtifactReportsResidual checks the slem artifact's report: the
// μ line keeps the format clients parse, and the Ritz residual follows
// it on its own line.
func TestSLEMArtifactReportsResidual(t *testing.T) {
	_, ts := newTestServer(t)
	generateGraph(t, ts, "g")
	var st JobStatus
	code := doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{Graph: "g", Job: "slem", Config: MeasureConfig{Seed: 3, Tolerance: 1e-8}}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("enqueue: status %d", code)
	}
	if st = waitDone(t, ts, st.ID); st.State != StateDone {
		t.Fatalf("job failed: %s", st.Error)
	}
	var a jobs.Artifact
	if err := json.Unmarshal(fetchArtifact(t, ts, st.ID), &a); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(a.Summary, "\n")
	var mu, residual float64
	var converged bool
	var steps int
	if len(lines) < 2 {
		t.Fatalf("summary %q: want the mu and residual lines", a.Summary)
	}
	if _, err := fmt.Sscanf(lines[0], "slem: mu = %f (converged=%t after %d iterations)", &mu, &converged, &steps); err != nil {
		t.Fatalf("mu line %q: %v", lines[0], err)
	}
	if _, err := fmt.Sscanf(lines[1], "slem: residual = %e", &residual); err != nil {
		t.Fatalf("residual line %q: %v", lines[1], err)
	}
	if !converged || steps == 0 || mu <= 0 || mu >= 1 || !(residual > 0 && residual < 1e-2) {
		t.Fatalf("summary %q: mu %v converged %v after %d steps, residual %v", a.Summary, mu, converged, steps, residual)
	}
}

// TestSecondIdenticalRequestServedFromCache asserts the daemonsmoke
// contract over httptest: an identical second request answers from the
// artifact cache — zero additional executions by the jobs.run.executed
// counter — with byte-identical artifact bytes.
func TestSecondIdenticalRequestServedFromCache(t *testing.T) {
	_, ts := newTestServer(t)
	generateGraph(t, ts, "g")
	cfg := MeasureConfig{Seed: 3, Sources: 4, MaxSteps: 30}
	executed := obs.Default().Counter("jobs.run.executed")

	run := func() (JobStatus, []byte) {
		var st JobStatus
		code := doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{Graph: "g", Job: "mixing", Config: cfg}, &st)
		if code != http.StatusAccepted {
			t.Fatalf("enqueue: status %d", code)
		}
		st = waitDone(t, ts, st.ID)
		if st.State != StateDone {
			t.Fatalf("job failed: %s", st.Error)
		}
		return st, fetchArtifact(t, ts, st.ID)
	}

	st1, body1 := run()
	before := executed.Value()
	st2, body2 := run()
	after := executed.Value()

	if st1.Cached {
		t.Fatalf("first run reported cached")
	}
	if !st2.Cached {
		t.Fatalf("second identical run not served from cache")
	}
	if after != before {
		t.Fatalf("second run executed a kernel: jobs.run.executed %d -> %d", before, after)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache replay not byte-identical (%d vs %d bytes)", len(body1), len(body2))
	}
	if st1.ID == st2.ID {
		t.Fatalf("distinct requests shared a job ID")
	}
}

// TestJobPastDeadlineFailsOnce runs a mixing request on a daemon whose
// per-job deadline expires at once: the job ends failed with the
// deadline error after exactly one execution and caches nothing, so an
// identical second request executes again.
func TestJobPastDeadlineFailsOnce(t *testing.T) {
	root := t.TempDir()
	s, err := New(Config{
		DataDir:      filepath.Join(root, "data"),
		CacheDir:     filepath.Join(root, "cache"),
		Workers:      1,
		JobTimeout:   time.Nanosecond,
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	generateGraph(t, ts, "g")
	cfg := MeasureConfig{Seed: 3, Sources: 4, MaxSteps: 30}
	executed := obs.Default().Counter("jobs.run.executed")

	for i := 1; i <= 2; i++ {
		before := executed.Value()
		var st JobStatus
		code := doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{Graph: "g", Job: "mixing", Config: cfg}, &st)
		if code != http.StatusAccepted {
			t.Fatalf("request %d: enqueue: status %d", i, code)
		}
		st = waitDone(t, ts, st.ID)
		if st.State != StateFailed || !strings.Contains(st.Error, context.DeadlineExceeded.Error()) {
			t.Fatalf("request %d: state %s, error %q; want failed with the deadline error", i, st.State, st.Error)
		}
		if got := executed.Value() - before; got != 1 {
			t.Fatalf("request %d: jobs.run.executed advanced by %d, want 1", i, got)
		}
		if st.Cached || s.store.Load(st.Job, st.GraphFingerprint, st.ConfigFingerprint) != nil {
			t.Fatalf("request %d: a failed job left a cached artifact", i)
		}
	}
}

// listJobs returns the daemon's job list.
func listJobs(t *testing.T, ts *httptest.Server) []JobStatus {
	t.Helper()
	var list JobList
	if code := doJSON(t, "GET", ts.URL+"/v1/jobs", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	return list.Jobs
}

// TestEnqueueRejectsOutOfRangeConfig posts configs the catalog cannot
// honour: each must be answered with 400 before anything is queued.
func TestEnqueueRejectsOutOfRangeConfig(t *testing.T) {
	_, ts := newTestServer(t)
	generateGraph(t, ts, "g")
	for _, cfg := range []MeasureConfig{{Epsilon: 2}, {Sources: -3}} {
		var errResp ErrorResponse
		code := doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{Graph: "g", Job: "mixing", Config: cfg}, &errResp)
		if code != http.StatusBadRequest {
			t.Errorf("config %+v: status %d (%s), want 400", cfg, code, errResp.Error)
		}
	}
	if jobs := listJobs(t, ts); len(jobs) != 0 {
		t.Fatalf("rejected configs queued %d jobs: %+v", len(jobs), jobs)
	}
}

// TestEnqueueOversizedBodyAnswers413 posts a job request over the JSON
// body cap: it must be answered with 413, and nothing queued.
func TestEnqueueOversizedBodyAnswers413(t *testing.T) {
	_, ts := newTestServer(t)
	generateGraph(t, ts, "g")
	body := `{"graph":"g","job":"mixing","config":{},"pad":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if jobs := listJobs(t, ts); len(jobs) != 0 {
		t.Fatalf("oversized body queued %d jobs: %+v", len(jobs), jobs)
	}
	// An upload cut at maxUploadBytes fails the same way, wrapped.
	rec := httptest.NewRecorder()
	writeError(rec, fmt.Errorf("upload: %w", &http.MaxBytesError{Limit: maxUploadBytes}))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap upload: status %d, want 413", rec.Code)
	}
}

// FuzzEnqueueJob posts arbitrary bodies to POST /v1/jobs on a daemon
// holding one tiny graph, under a short job deadline. Every body must be
// answered with 202 Accepted or with an error the OpenAPI document
// allows for the route: the default error's 400 and 404, or the listed
// 413 and 429. No body may panic a handler, and the queue must drain
// cleanly at the end.
func FuzzEnqueueJob(f *testing.F) {
	root := f.TempDir()
	s, err := New(Config{
		DataDir:      filepath.Join(root, "data"),
		CacheDir:     filepath.Join(root, "cache"),
		Workers:      1,
		JobTimeout:   50 * time.Millisecond,
		DrainTimeout: time.Minute,
	})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	post := func(path string, body []byte) int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
		return rec.Code
	}
	if code := post("/v1/graphs/g/generate", []byte(`{"model":"ba","nodes":30,"attach":2,"seed":5}`)); code != http.StatusCreated {
		f.Fatalf("generate the graph: status %d", code)
	}
	f.Cleanup(func() {
		if !s.queue.drain(time.Minute) {
			f.Error("the queue did not drain within a minute")
		}
		s.graphs.closeAll()
	})

	f.Add([]byte(`{"graph":"g","job":"mixing","config":{"sources":2,"max_steps":5}}`))
	f.Add([]byte(`{"graph":"g","job":"cores"}`))
	f.Add([]byte(`{"graph":"nope","job":"slem"}`))
	f.Add([]byte(`{"graph":"g","job":"coreness","priority":1}`))
	f.Add([]byte(`{"graph":"g","job":"mix`))
	f.Add([]byte(`{"graph":"g","job":"expansion","config":{"expansion_sources":-1}}`))
	pad := maxRequestBytes + 1 - len(`{"graph":"g","job":"slem","pad":""}`)
	f.Add([]byte(`{"graph":"g","job":"slem","pad":"` + strings.Repeat("x", pad) + `"}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		switch code := post("/v1/jobs", body); code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusNotFound,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST /v1/jobs %q: status %d, want 202, 400, 404, 413 or 429", body, code)
		}
	})
}

// TestExpansionMinAlphaIsVertexExpansion checks the expansion summary's
// min alpha on wiki-vote against the sampled vertex expansion: the
// smallest factor over envelopes of at most n/2 nodes, not the tail of
// the BFS.
func TestExpansionMinAlphaIsVertexExpansion(t *testing.T) {
	spec, err := datasets.ByName("wiki-vote")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Jobs(g, MeasureConfig{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := reg.Lookup("expansion")
	if err != nil {
		t.Fatal(err)
	}
	a, err := j.Run(context.Background(), jobs.Env{})
	if err != nil {
		t.Fatal(err)
	}
	var alpha float64
	var cores, ecc int
	if _, err := fmt.Sscanf(a.Summary, "expansion: min alpha = %f over %d cores (max eccentricity %d)", &alpha, &cores, &ecc); err != nil {
		t.Fatalf("summary %q: %v", a.Summary, err)
	}
	sources, err := expansion.SampledSources(g, cores, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := expansion.Measure(context.Background(), g, expansion.Config{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	want, ok := res.VertexExpansion(g.NumNodes())
	if !ok || fmt.Sprintf("%.4f", alpha) != fmt.Sprintf("%.4f", want) {
		t.Fatalf("summary min alpha %.4f, vertex expansion %.4f (found %v)", alpha, want, ok)
	}
}

// TestJobNameSuggestion expects a typo to be answered with the
// registry's nearest-name suggestion.
func TestJobNameSuggestion(t *testing.T) {
	_, ts := newTestServer(t)
	generateGraph(t, ts, "g")
	var errResp ErrorResponse
	code := doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{Graph: "g", Job: "mixng"}, &errResp)
	if code != http.StatusBadRequest {
		t.Fatalf("typo enqueue: status %d", code)
	}
	if !strings.Contains(errResp.Error, "mixing") {
		t.Fatalf("no suggestion in error: %q", errResp.Error)
	}
}

// TestEvictIsDeferredPastRunningJob evicts a graph while a measurement
// is queued against it: the name disappears immediately, new enqueues
// fail, but the running job still completes (the view stays mapped
// until its release).
func TestEvictIsDeferredPastRunningJob(t *testing.T) {
	_, ts := newTestServer(t)
	generateGraph(t, ts, "g")
	cfg := MeasureConfig{Seed: 9, Sources: 8, MaxSteps: 120}

	var st JobStatus
	code := doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{Graph: "g", Job: "mixing", Config: cfg}, &st)
	if code != http.StatusAccepted {
		t.Fatalf("enqueue: status %d", code)
	}
	var evicted GraphInfo
	if code := doJSON(t, "DELETE", ts.URL+"/v1/graphs/g", nil, &evicted); code != http.StatusOK {
		t.Fatalf("evict: status %d", code)
	}
	var errResp ErrorResponse
	if code := doJSON(t, "GET", ts.URL+"/v1/graphs/g", nil, &errResp); code != http.StatusNotFound {
		t.Fatalf("get after evict: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{Graph: "g", Job: "mixing"}, &errResp); code != http.StatusNotFound {
		t.Fatalf("enqueue after evict: status %d", code)
	}
	st = waitDone(t, ts, st.ID)
	if st.State != StateDone {
		t.Fatalf("in-flight job should survive eviction, got %s: %s", st.State, st.Error)
	}
}

// TestCatalogAndOpenAPI sanity-checks the self-description surfaces:
// the catalog lists the full battery, and the OpenAPI document derived
// from the route table names the routes and typed schemas.
func TestCatalogAndOpenAPI(t *testing.T) {
	_, ts := newTestServer(t)

	var cat Catalog
	if code := doJSON(t, "GET", ts.URL+"/v1/catalog", nil, &cat); code != http.StatusOK {
		t.Fatalf("catalog: status %d", code)
	}
	var names []string
	for _, e := range cat.Jobs {
		names = append(names, e.Name)
	}
	if want := []string{"mixing", "expansion", "coreness", "slem"}; !slices.Equal(names, want) {
		t.Fatalf("catalog lists %v, want %v", names, want)
	}

	var doc struct {
		OpenAPI string                    `json:"openapi"`
		Paths   map[string]map[string]any `json:"paths"`
		Comp    struct {
			Schemas map[string]any `json:"schemas"`
		} `json:"components"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/openapi.json", nil, &doc); code != http.StatusOK {
		t.Fatalf("openapi: status %d", code)
	}
	if !strings.HasPrefix(doc.OpenAPI, "3.") {
		t.Fatalf("openapi version %q", doc.OpenAPI)
	}
	for _, p := range []string{"/v1/graphs", "/v1/graphs/{name}", "/v1/jobs", "/v1/jobs/{id}/artifact"} {
		if _, ok := doc.Paths[p]; !ok {
			t.Fatalf("openapi missing path %s", p)
		}
	}
	for _, schema := range []string{"GraphInfo", "JobStatus", "JobRequest", "MeasureConfig", "GenerateRequest", "ErrorResponse"} {
		if _, ok := doc.Comp.Schemas[schema]; !ok {
			t.Fatalf("openapi missing schema %s", schema)
		}
	}
	post, ok := doc.Paths["/v1/jobs"]["post"].(map[string]any)
	if !ok {
		t.Fatalf("openapi missing POST /v1/jobs operation")
	}
	responses, _ := post["responses"].(map[string]any)
	for _, code := range []string{"413", "429", "503"} {
		if _, ok := responses[code]; !ok {
			t.Fatalf("openapi POST /v1/jobs does not list %s", code)
		}
	}
}

// TestOpenAPIListsSuccessStatuses runs the happy paths of the three
// routes that answer something other than 200 — generate, upload and
// enqueue — and requires each status to be the one success status the
// OpenAPI document lists for the route.
func TestOpenAPIListsSuccessStatuses(t *testing.T) {
	_, ts := newTestServer(t)
	var doc struct {
		Paths map[string]map[string]struct {
			Responses map[string]any `json:"responses"`
		} `json:"paths"`
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/openapi.json", nil, &doc); code != http.StatusOK {
		t.Fatalf("openapi: status %d", code)
	}
	listed := func(method, path string) string {
		t.Helper()
		var ok []string
		for code := range doc.Paths[path][method].Responses {
			if strings.HasPrefix(code, "2") {
				ok = append(ok, code)
			}
		}
		if len(ok) != 1 {
			t.Fatalf("openapi %s %s lists success statuses %v, want one", method, path, ok)
		}
		return ok[0]
	}

	code := doJSON(t, "POST", ts.URL+"/v1/graphs/g/generate", GenerateRequest{Model: "ba", Nodes: 200, Attach: 3, Seed: 2}, nil)
	if want := listed("post", "/v1/graphs/{name}/generate"); fmt.Sprint(code) != want {
		t.Errorf("generate answered %d, openapi lists %s", code, want)
	}

	es, err := gen.StreamBA(200, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "up.tng2")
	if _, err := gen.StreamToFile(es, path); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	code, _ = uploadGraph(t, ts, "up", "tng2", body)
	if want := listed("put", "/v1/graphs/{name}"); fmt.Sprint(code) != want {
		t.Errorf("upload answered %d, openapi lists %s", code, want)
	}

	var st JobStatus
	code = doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{Graph: "g", Job: "coreness"}, &st)
	if want := listed("post", "/v1/jobs"); fmt.Sprint(code) != want {
		t.Errorf("enqueue answered %d, openapi lists %s", code, want)
	}
	if st.ID != "" {
		waitDone(t, ts, st.ID)
	}
}

// TestMetricsEndpoint expects /metrics to serve the obs snapshot.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if code := doJSON(t, "GET", ts.URL+"/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if snap.Counters == nil {
		t.Fatalf("metrics snapshot has no counters section")
	}
}

// TestQueueRejectsAfterDrain verifies that a drained daemon refuses new
// work instead of silently dropping it.
func TestQueueRejectsAfterDrain(t *testing.T) {
	s, ts := newTestServer(t)
	generateGraph(t, ts, "g")
	s.queue.drain(time.Second)
	var errResp ErrorResponse
	code := doJSON(t, "POST", ts.URL+"/v1/jobs", JobRequest{Graph: "g", Job: "mixing"}, &errResp)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("enqueue after drain: status %d (%s)", code, errResp.Error)
	}
}

// blockingJob reports on started that it runs, then blocks until
// release closes or its context ends.
type blockingJob struct {
	name             string
	started, release chan struct{}
}

func (j blockingJob) Name() string        { return j.name }
func (j blockingJob) Fingerprint() string { return j.name }

func (j blockingJob) Run(ctx context.Context, _ jobs.Env) (*jobs.Artifact, error) {
	close(j.started)
	select {
	case <-j.release:
		return nil, errors.New("released")
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// TestQueueFullAnswers429 fills a depth-1 queue behind a blocked worker:
// the next enqueue must answer 429 with Retry-After, which a client can
// tell from the 503 of a draining daemon.
func TestQueueFullAnswers429(t *testing.T) {
	root := t.TempDir()
	s, err := New(Config{
		DataDir:      filepath.Join(root, "data"),
		CacheDir:     filepath.Join(root, "cache"),
		Workers:      1,
		QueueDepth:   1,
		JobTimeout:   time.Minute,
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	release := make(chan struct{})
	t.Cleanup(func() {
		close(release)
		ts.Close()
		s.Close()
	})
	generateGraph(t, ts, "g")

	running := blockingJob{name: "running", started: make(chan struct{}), release: release}
	if _, err := s.queue.enqueue(running, GraphInfo{}, "g", func() {}); err != nil {
		t.Fatalf("enqueue the running job: %v", err)
	}
	select {
	case <-running.started:
	case <-time.After(30 * time.Second):
		t.Fatal("the worker never started the first job")
	}
	queued := blockingJob{name: "queued", started: make(chan struct{}), release: release}
	if _, err := s.queue.enqueue(queued, GraphInfo{}, "g", func() {}); err != nil {
		t.Fatalf("enqueue the queued job: %v", err)
	}

	body, err := json.Marshal(JobRequest{Graph: "g", Job: "mixing"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var errResp ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&errResp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("enqueue into a full queue: status %d, Retry-After %q (%s); want 429 and 1",
			resp.StatusCode, resp.Header.Get("Retry-After"), errResp.Error)
	}
}

// TestInvalidGraphName rejects names that could escape the data dir.
func TestInvalidGraphName(t *testing.T) {
	_, ts := newTestServer(t)
	var errResp ErrorResponse
	code := doJSON(t, "POST", ts.URL+"/v1/graphs/..%2fescape/generate",
		GenerateRequest{Model: "ba", Nodes: 10}, &errResp)
	if code != http.StatusBadRequest && code != http.StatusNotFound {
		t.Fatalf("bad name accepted: status %d", code)
	}
}

// TestRetainForgottenJobAnswers404AndReplaysFromCache runs a daemon
// that keeps two finished jobs. Once two more jobs have finished after
// the first, its ID must answer 404 on status, long poll and artifact,
// the job list must hold the two newest jobs in enqueue order, and
// re-POSTing the first request must answer done from the cache with the
// bytes first served.
func TestRetainForgottenJobAnswers404AndReplaysFromCache(t *testing.T) {
	s, ts := newTestServer(t)
	s.queue.mu.Lock()
	s.queue.retain = 2
	s.queue.mu.Unlock()
	generateGraph(t, ts, "g")
	expired := obs.Default().Counter("trustnetd.jobs.expired")
	before := expired.Value()

	run := func(job string) (JobStatus, []byte) {
		t.Helper()
		var st JobStatus
		req := JobRequest{Graph: "g", Job: job, Config: MeasureConfig{Seed: 3, Sources: 4, MaxSteps: 30, ExpansionSources: 8}}
		if code := doJSON(t, "POST", ts.URL+"/v1/jobs", req, &st); code != http.StatusAccepted {
			t.Fatalf("enqueue %s: status %d", job, code)
		}
		st = waitDone(t, ts, st.ID)
		if st.State != StateDone {
			t.Fatalf("%s failed: %s", job, st.Error)
		}
		return st, fetchArtifact(t, ts, st.ID)
	}
	first, body := run("mixing")
	var ids []string
	for _, job := range []string{"expansion", "coreness"} {
		st, _ := run(job)
		ids = append(ids, st.ID)
	}

	for _, path := range []string{"", "?wait=1s", "/artifact"} {
		var errResp ErrorResponse
		if code := doJSON(t, "GET", ts.URL+"/v1/jobs/"+first.ID+path, nil, &errResp); code != http.StatusNotFound {
			t.Errorf("GET /v1/jobs/%s%s of a forgotten job: status %d, want 404", first.ID, path, code)
		}
	}
	var listed []string
	for _, st := range listJobs(t, ts) {
		listed = append(listed, st.ID)
	}
	if !slices.Equal(listed, ids) {
		t.Fatalf("GET /v1/jobs lists %v, want the two newest, %v", listed, ids)
	}
	if got := expired.Value() - before; got != 1 {
		t.Fatalf("trustnetd.jobs.expired advanced by %d, want 1", got)
	}

	again, replayed := run("mixing")
	if !again.Cached || again.ID == first.ID {
		t.Fatalf("re-POSTed request: %+v; want a new job answered from the cache", again)
	}
	if !bytes.Equal(replayed, body) {
		t.Fatalf("replayed artifact differs from the one first served (%d vs %d bytes)", len(replayed), len(body))
	}
	if n := len(listJobs(t, ts)); n != 2 {
		t.Fatalf("GET /v1/jobs lists %d jobs, want 2", n)
	}
}
