package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/experiments"
	"github.com/trustnet/trustnet/internal/obs"
)

func TestRunSingleExperiments(t *testing.T) {
	dir := t.TempDir()
	// Quick single runs; tableI also exercises the save path.
	for _, name := range []string{"tableI", "figure2", "figure5"} {
		if err := run([]string{"-quick", "-run", name, "-out", dir}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "tableI.txt")); err != nil {
		t.Errorf("tableI.txt not written: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "figure2a.csv")); err != nil {
		t.Errorf("figure2a.csv not written: %v", err)
	}
}

func TestRunFigure1And4(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-dataset experiments are slow")
	}
	dir := t.TempDir()
	for _, name := range []string{"figure1", "figure4", "tableII"} {
		if err := run([]string{"-quick", "-run", name, "-out", dir}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, f := range []string{"figure1a.csv", "figure1b.csv", "figure4a.csv", "tableII.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("%s not written: %v", f, err)
		}
	}
}

func TestRunRemainingExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment run is slow")
	}
	dir := t.TempDir()
	for _, name := range []string{"figure3", "cross", "dynamic", "modulated", "attacker", "betweenness"} {
		if err := run([]string{"-quick", "-run", name, "-out", dir}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, f := range []string{
		"cross-summary.txt", "cross-correlations.txt", "dynamic.csv",
		"modulated.csv", "attacker.txt", "betweenness.csv",
	} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("%s not written: %v", f, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "nope", "-out", t.TempDir()}); err == nil {
		t.Error("run(-run nope): want error")
	}
}

// A near-miss name fails fast with the nearest registered job as a
// suggestion, before any measurement work starts.
func TestRunUnknownExperimentSuggestsNearest(t *testing.T) {
	err := run([]string{"-run", "tabel1", "-out", t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), `did you mean "tableI"`) {
		t.Errorf("run(-run tabel1) = %v, want a tableI suggestion", err)
	}
}

// captureStdout redirects os.Stdout around fn; run() prints job output
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

// -list enumerates the registered battery with config fingerprints and
// does no measurement work.
func TestRunList(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-list"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"tableI", "figure1", "figure2", "tableII", "figure3", "figure4", "figure5",
		"cross", "dynamic", "modulated", "attacker", "betweenness", "sweep", "churn", "epochs",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
	if !regexp.MustCompile(`(?m)^tableI\s+[0-9a-f]{16}$`).MatchString(out) {
		t.Errorf("-list rows lack 16-hex config fingerprints:\n%s", out)
	}
}

// -run accepts a comma-separated subset, resolved through the registry.
func TestRunCommaSeparatedSubset(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick", "-run", "tableI,figure2", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"tableI.txt", "figure2a.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("%s not written: %v", f, err)
		}
	}
	if err := run([]string{"-quick", "-run", "tableI,nope", "-out", t.TempDir()}); err == nil {
		t.Error("comma list with an unknown name: want error")
	}
}

// checkSecondRunReplays runs args twice and requires the second run to
// replay tableI from <dir>/cache: a CACHED line, a byte-identical
// tableI.txt, and a METRICS window with one cache hit and no kernel run.
func checkSecondRunReplays(t *testing.T, dir string, args ...string) {
	t.Helper()
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, "tableI.txt"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CACHED tableI") {
		t.Errorf("second run did not replay from cache:\n%s", out)
	}
	second, err := os.ReadFile(filepath.Join(dir, "tableI.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("replayed tableI.txt differs from the computed one")
	}
	// The job's METRICS window proves no kernel ran: one cache hit, zero
	// executions, no SLEM iterations.
	data, err := os.ReadFile(filepath.Join(dir, "METRICS.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Jobs []struct {
			Name    string `json:"name"`
			Status  string `json:"status"`
			Metrics struct {
				Counters map[string]int64 `json:"counters"`
			} `json:"metrics"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Jobs) != 1 || doc.Jobs[0].Name != "tableI" || doc.Jobs[0].Status != "ok" {
		t.Fatalf("jobs = %+v", doc.Jobs)
	}
	c := doc.Jobs[0].Metrics.Counters
	if c["jobs.cache.hits"] != 1 {
		t.Errorf("cache hits in the job window = %d, want 1 (counters: %v)", c["jobs.cache.hits"], c)
	}
	if c["jobs.run.executed"] != 0 {
		t.Errorf("executions in the job window = %d, want 0", c["jobs.run.executed"])
	}
	if c["spectral.slem.iterations"] != 0 {
		t.Errorf("SLEM iterations on a cache hit = %d, want 0", c["spectral.slem.iterations"])
	}
}

// The artifact cache: an unchanged rerun replays the stored artifact
// byte-identically with zero job executions — verified through the
// CACHED line, the emitted files, and the METRICS counters.
func TestRunSecondRunIsCacheHit(t *testing.T) {
	dir := t.TempDir()
	checkSecondRunReplays(t, dir, "-quick", "-run", "tableI", "-out", dir)
	// -no-cache forces a recompute even with a valid entry present.
	out, err := captureStdout(t, func() error {
		return run([]string{"-quick", "-run", "tableI", "-no-cache", "-out", dir})
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "CACHED tableI") {
		t.Errorf("-no-cache still replayed from cache:\n%s", out)
	}
}

// A positional argument stops flag parsing, so "tableI -quick" would
// otherwise run the whole battery in full mode; run rejects it instead.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-definitely-not-a-flag"},
		{"-list", "bench"},
		{"-list", "tableI"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q): want error", args)
		}
	}
}

func TestRunChurnQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-dataset experiment is slow")
	}
	dir := t.TempDir()
	if err := run([]string{"-quick", "-run", "churn", "-out", dir}); err != nil {
		t.Fatalf("churn: %v", err)
	}
	for _, f := range []string{"churn.txt", "churn.csv"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("%s not written: %v", f, err)
		}
	}
}

func TestRunJobsKeepGoingAfterFailure(t *testing.T) {
	var ran []string
	jobs := []job{
		{name: "boom", run: func(ctx context.Context) error { ran = append(ran, "boom"); return errors.New("kaput") }},
		{name: "after", run: func(ctx context.Context) error { ran = append(ran, "after"); return nil }},
	}
	var buf bytes.Buffer
	err := runJobs(context.Background(), jobs, runnerConfig{keepGoing: true}, nil, &buf)
	if err == nil {
		t.Fatal("runJobs with a failing job: want error (nonzero exit)")
	}
	if len(ran) != 2 || ran[1] != "after" {
		t.Fatalf("jobs run = %v, want both despite the failure", ran)
	}
	out := buf.String()
	if !strings.Contains(out, "FAILED boom") || !strings.Contains(out, "1 of 2 jobs failed") {
		t.Errorf("summary missing from output:\n%s", out)
	}
}

func TestRunJobsPanicIsReportedFailure(t *testing.T) {
	var ran []string
	jobs := []job{
		{name: "panics", run: func(ctx context.Context) error { panic("exploded") }},
		{name: "survivor", run: func(ctx context.Context) error { ran = append(ran, "survivor"); return nil }},
	}
	var buf bytes.Buffer
	err := runJobs(context.Background(), jobs, runnerConfig{keepGoing: true}, nil, &buf)
	if err == nil {
		t.Fatal("runJobs with a panicking job: want error")
	}
	if !strings.Contains(err.Error(), "panics") {
		t.Errorf("error %q does not name the panicking job", err)
	}
	if !strings.Contains(buf.String(), "panic: exploded") {
		t.Errorf("panic not converted to a reported failure:\n%s", buf.String())
	}
	if len(ran) != 1 {
		t.Fatalf("job after the panic did not run: %v", ran)
	}
}

func TestRunJobsTimeout(t *testing.T) {
	jobs := []job{
		{name: "slow", run: func(ctx context.Context) error {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(30 * time.Second):
				return nil
			}
		}},
		{name: "next", run: func(ctx context.Context) error { return nil }},
	}
	var buf bytes.Buffer
	start := time.Now()
	err := runJobs(context.Background(), jobs, runnerConfig{timeout: 50 * time.Millisecond, keepGoing: true}, nil, &buf)
	if err == nil {
		t.Fatal("runJobs with a timed-out job: want error")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("runner waited %v for a 50ms timeout", time.Since(start))
	}
	if !strings.Contains(buf.String(), "FAILED slow") || !strings.Contains(buf.String(), "timed out") {
		t.Errorf("timeout not reported:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "(next in") {
		t.Errorf("job after the timeout did not run:\n%s", buf.String())
	}
}

func TestRunJobsIgnoredContextStillTimesOut(t *testing.T) {
	// A job that never looks at its context cannot stall the runner.
	block := make(chan struct{})
	defer close(block)
	jobs := []job{{name: "stuck", run: func(ctx context.Context) error { <-block; return nil }}}
	var buf bytes.Buffer
	if err := runJobs(context.Background(), jobs, runnerConfig{timeout: 50 * time.Millisecond, keepGoing: true}, nil, &buf); err == nil {
		t.Fatal("runJobs with a stuck job: want error")
	}
}

func TestRunJobsStopsWithoutKeepGoing(t *testing.T) {
	var ran []string
	jobs := []job{
		{name: "boom", run: func(ctx context.Context) error { return errors.New("kaput") }},
		{name: "after", run: func(ctx context.Context) error { ran = append(ran, "after"); return nil }},
	}
	var buf bytes.Buffer
	if err := runJobs(context.Background(), jobs, runnerConfig{}, nil, &buf); err == nil {
		t.Fatal("want error")
	}
	if len(ran) != 0 {
		t.Fatalf("-keep-going=false still ran later jobs: %v", ran)
	}
}

// Regression: -h used to propagate flag.ErrHelp out of run, so asking
// for usage exited 1.
func TestRunHelpExitsZero(t *testing.T) {
	if err := run([]string{"-h"}); err != nil {
		t.Fatalf("run(-h) = %v, want nil", err)
	}
}

// syncWriter serializes writes so an abandoned job goroutine racing the
// test's final read cannot trip the race detector.
type syncWriter struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// Regression: the tableI job discarded its context, so after a timeout
// the abandoned goroutine finished the measurement anyway and rendered
// its table into the middle of later jobs' output.
func TestRunJobsCanceledTableIWritesNothing(t *testing.T) {
	out := &syncWriter{}
	jobs := []job{{name: "tableI", run: func(ctx context.Context) error {
		res, err := experiments.TableI(ctx, experiments.Options{Quick: true, Seed: 1})
		if err != nil {
			return err
		}
		tb, err := res.Table()
		if err != nil {
			return err
		}
		return tb.Render(out)
	}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := runJobs(ctx, jobs, runnerConfig{keepGoing: true}, nil, out); err == nil {
		t.Fatal("canceled run: want error")
	}
	// Grace period for a ctx-ignoring job to misbehave before we look.
	time.Sleep(100 * time.Millisecond)
	if s := out.String(); strings.Contains(s, "Table I:") {
		t.Errorf("job rendered its table after cancellation:\n%s", s)
	}
}

// Every run writes METRICS.json with the per-job resource and metrics
// window next to the experiment artifacts.
func TestRunWritesMetrics(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-quick", "-run", "tableI", "-out", dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "METRICS.json"))
	if err != nil {
		t.Fatalf("METRICS.json not written: %v", err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Jobs   []struct {
			Name        string  `json:"name"`
			Status      string  `json:"status"`
			WallSeconds float64 `json:"wall_seconds"`
			Allocs      uint64  `json:"allocs"`
			Metrics     struct {
				Counters map[string]int64 `json:"counters"`
				Timers   map[string]struct {
					Count int64 `json:"count"`
				} `json:"timers"`
				Spans []struct {
					Stage string `json:"stage"`
				} `json:"spans"`
			} `json:"metrics"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("invalid METRICS.json: %v", err)
	}
	if doc.Schema != "trustnet/metrics/v1" {
		t.Errorf("schema = %q", doc.Schema)
	}
	if len(doc.Jobs) != 1 || doc.Jobs[0].Name != "tableI" || doc.Jobs[0].Status != "ok" {
		t.Fatalf("jobs = %+v, want one ok tableI entry", doc.Jobs)
	}
	j := doc.Jobs[0]
	if j.WallSeconds <= 0 || j.Allocs == 0 {
		t.Errorf("wall=%v allocs=%d, want both positive", j.WallSeconds, j.Allocs)
	}
	if j.Metrics.Counters["spectral.slem.iterations"] == 0 {
		t.Errorf("no SLEM iterations attributed to tableI: %v", j.Metrics.Counters)
	}
	if j.Metrics.Timers["spectral.slem"].Count == 0 {
		t.Error("no spectral.slem timer observations")
	}
	found := false
	for _, s := range j.Metrics.Spans {
		if s.Stage == "spectral.slem" {
			found = true
		}
	}
	if !found {
		t.Error("no spectral.slem span in the job window")
	}
}

// The -metrics-addr endpoint serves registry snapshots as JSON, and is
// torn down with a graceful drain rather than a connection-severing
// Close.
func TestServeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("cmd.test.metric").Add(3)
	srv, addr, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if derr := obs.DrainServer(srv, time.Second); derr != nil {
			t.Errorf("drain: %v", derr)
		}
	}()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["cmd.test.metric"] != 3 {
		t.Errorf("counters = %v", snap.Counters)
	}
}
