package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/trustnet/trustnet/internal/core"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/trustnetd"
)

func tempGraphFile(t *testing.T) string {
	t.Helper()
	g, err := gen.BarabasiAlbert(200, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := graph.SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAllFromFile(t *testing.T) {
	path := tempGraphFile(t)
	if err := run([]string{"-in", path, "-sources", "5", "-steps", "30", "all"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunIndividualMeasurements(t *testing.T) {
	path := tempGraphFile(t)
	for _, what := range []string{"slem", "mixing", "coreness", "expansion"} {
		if err := run([]string{"-in", path, "-sources", "5", "-steps", "20", what}); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
}

func TestRunCentralityAndCommunity(t *testing.T) {
	path := tempGraphFile(t)
	if err := run([]string{"-in", path, "-sources", "5", "-steps", "20", "centrality", "community"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDataset(t *testing.T) {
	if err := run([]string{"-dataset", "rice-grad", "-sources", "5", "-steps", "20", "-expansion-sources", "30", "coreness"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	path := tempGraphFile(t)
	tests := [][]string{
		{},
		{"-in", path, "-dataset", "rice-grad"},
		{"-dataset", "nope"},
		{"-in", filepath.Join(t.TempDir(), "missing.txt")},
		// A misspelled name, and a flag after a name, fail before any
		// measurement runs.
		{"-dataset", "rice-grad", "-sources", "5", "-steps", "20", "mixng"},
		{"-dataset", "rice-grad", "-sources", "5", "-steps", "20", "coreness", "-seed", "3"},
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
	// The old name gets the catalog's suggestion, and an out-of-range
	// config fails before the (missing) graph is opened.
	missing := filepath.Join(t.TempDir(), "missing.txt")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-in", missing, "cores"}, `did you mean "coreness"`},
		{[]string{"-in", missing, "-eps", "2"}, "epsilon"},
		{[]string{"-in", missing, "-sources", "-3"}, "sources"},
		{[]string{"-in", missing, "-spectral-tol", "-1"}, "tolerance"},
	} {
		if err := run(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want an error naming %q", c.args, err, c.want)
		}
	}
}

// TestRunMatchesDaemonArtifacts measures a small BA graph with each
// catalog measurement in turn: the block measure prints after the graph
// line must equal the summary of the artifact trustnetd serves for the
// same graph and config.
func TestRunMatchesDaemonArtifacts(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.tng2")
	if err := graph.SaveCSR(path, g); err != nil {
		t.Fatal(err)
	}
	srv, err := trustnetd.New(trustnetd.Config{
		DataDir: filepath.Join(dir, "data"), CacheDir: filepath.Join(dir, "cache"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer ts.Close()
	call := func(method, url string, body io.Reader, out any) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+url, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			data, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, data)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	call("PUT", "/v1/graphs/g", bytes.NewReader(data), &trustnetd.GraphInfo{})
	cfg := trustnetd.MeasureConfig{Sources: 5, MaxSteps: 20}
	for _, m := range core.Catalog() {
		req, err := json.Marshal(trustnetd.JobRequest{Graph: "g", Job: m.Name, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		var st trustnetd.JobStatus
		call("POST", "/v1/jobs", bytes.NewReader(req), &st)
		call("GET", "/v1/jobs/"+st.ID+"?wait=30s", nil, &st)
		if st.State != trustnetd.StateDone {
			t.Fatalf("%s: job %s is %s: %s", m.Name, st.ID, st.State, st.Error)
		}
		var a jobs.Artifact
		call("GET", "/v1/jobs/"+st.ID+"/artifact", nil, &a)
		out, err := captureStdout(t, func() error {
			return run([]string{"-in", path, "-sources", "5", "-steps", "20", m.Name})
		})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if _, block, _ := strings.Cut(out, "\n\n"); block != a.Summary+"\n" {
			t.Errorf("%s: measure printed\n%s\nthe daemon artifact says\n%s", m.Name, block, a.Summary)
		}
	}
}

// checkReportMatchesText writes BA(150, 3, 2) as edge-list text and,
// through write, as name; measure must print the same report for both,
// apart from the input path in the header line.
func checkReportMatchesText(t *testing.T, name string, write func(path string, g *graph.Graph) error) {
	t.Helper()
	g, err := gen.BarabasiAlbert(150, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	report := func(path string) string {
		t.Helper()
		out, err := captureStdout(t, func() error {
			return run([]string{"-in", path, "-sources", "5", "-steps", "20", "all"})
		})
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		return strings.ReplaceAll(out, path, "<in>")
	}
	txt := filepath.Join(dir, "g.txt")
	if err := graph.SaveEdgeList(txt, g); err != nil {
		t.Fatal(err)
	}
	want := report(txt)
	if !strings.HasPrefix(want, "graph <in>: n=150") {
		t.Fatalf("g.txt: unexpected header:\n%s", want)
	}
	path := filepath.Join(dir, name)
	if err := write(path, g); err != nil {
		t.Fatal(err)
	}
	if got := report(path); got != want {
		t.Errorf("%s report differs from g.txt:\n--- g.txt\n%s\n--- %s\n%s", name, want, name, got)
	}
}

// TestRunBinaryInput reads a TNG1 file through gen.StreamTNG1.
func TestRunBinaryInput(t *testing.T) {
	checkReportMatchesText(t, "g.bin", func(path string, g *graph.Graph) error {
		var buf bytes.Buffer
		if err := graph.WriteBinary(&buf, g); err != nil {
			return err
		}
		return os.WriteFile(path, buf.Bytes(), 0o644)
	})
}

// TestRunMappedInput reads a TNG2 file through graph.OpenMapped.
func TestRunMappedInput(t *testing.T) {
	checkReportMatchesText(t, "g.tng2", func(path string, g *graph.Graph) error {
		return graph.SaveCSR(path, g)
	})
}

// captureStdout redirects os.Stdout around fn; run prints its report
// there directly.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	rp, wp, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wp
	defer func() { os.Stdout = old }()
	done := make(chan string, 1)
	go func() {
		data, _ := io.ReadAll(rp)
		done <- string(data)
	}()
	runErr := fn()
	wp.Close()
	return <-done, runErr
}
