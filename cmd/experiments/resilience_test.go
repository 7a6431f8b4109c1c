package main

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/resilience"
)

// testRunnerConfig is the runner without retries, used by tests that
// exercise timeout/panic/keep-going handling in isolation.
func testRunnerConfig(timeout time.Duration, keepGoing bool) runnerConfig {
	return runnerConfig{
		timeout:   timeout,
		keepGoing: keepGoing,
		policy:    resilience.Policy{MaxAttempts: 1},
	}
}

// The failure summary must include the recovered panic stack so the
// crashing frame survives into logs.
func TestRunJobsPanicStackInSummary(t *testing.T) {
	jobs := []job{
		{name: "detonator", run: func(ctx context.Context) error { panic("boom with stack") }},
	}
	var buf bytes.Buffer
	err := runJobs(context.Background(), jobs, testRunnerConfig(0, true), nil, &buf)
	if err == nil {
		t.Fatal("panicking job: want error")
	}
	out := buf.String()
	if !strings.Contains(out, "panic stack for detonator") {
		t.Fatalf("summary does not include the panic stack header:\n%s", out)
	}
	if !strings.Contains(out, "goroutine ") {
		t.Fatalf("no goroutine stack in output:\n%s", out)
	}
	// The stack must name the panicking function, not just the runner.
	if !strings.Contains(out, "TestRunJobsPanicStackInSummary") {
		t.Fatalf("stack does not reach the panicking frame:\n%s", out)
	}
	if !strings.Contains(out, "transient") {
		t.Fatalf("summary table does not classify the panic:\n%s", out)
	}
}

func TestRunJobsRetriesTransient(t *testing.T) {
	calls := 0
	jobs := []job{
		{name: "flaky", run: func(ctx context.Context) error {
			calls++
			if calls < 3 {
				return resilience.MarkTransient(errors.New("injected"))
			}
			return nil
		}},
	}
	rc := testRunnerConfig(0, true)
	rc.policy = resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}
	var buf bytes.Buffer
	if err := runJobs(context.Background(), jobs, rc, nil, &buf); err != nil {
		t.Fatalf("transient failures within budget: %v", err)
	}
	if calls != 3 {
		t.Fatalf("job ran %d times, want 3", calls)
	}
	if got := strings.Count(buf.String(), "RETRY flaky"); got != 2 {
		t.Fatalf("RETRY logged %d times, want 2:\n%s", got, buf.String())
	}
}

func TestRunJobsFatalNotRetried(t *testing.T) {
	calls := 0
	jobs := []job{
		{name: "broken", run: func(ctx context.Context) error { calls++; return errors.New("deterministic") }},
	}
	rc := testRunnerConfig(0, true)
	rc.policy = resilience.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, Seed: 1}
	var buf bytes.Buffer
	if err := runJobs(context.Background(), jobs, rc, nil, &buf); err == nil {
		t.Fatal("fatal job: want error")
	}
	if calls != 1 {
		t.Fatalf("fatal job ran %d times, want 1", calls)
	}
	if !strings.Contains(buf.String(), "fatal") {
		t.Fatalf("summary does not classify the failure:\n%s", buf.String())
	}
}

// Regression: job done-markers were once keyed only by (quick, seed,
// workers), so a checkpoint taken over one dataset registry silently
// resumed a run over a completely different substrate. The artifact
// cache is now the only done record, and run keys it by the canonical
// graph fingerprint: the same job and configuration over a different
// graph runs again, while the first graph's entry still replays.
func TestRunJobsResumeKeyedByGraphFingerprint(t *testing.T) {
	dir := t.TempDir()
	ran := 0
	j := jobs.New("a", struct{ Seed int64 }{Seed: 1}, func(ctx context.Context, env jobs.Env) (*jobs.Artifact, error) {
		ran++
		b := jobs.NewBuilder()
		b.Printf("measured %s\n", env.GraphFingerprint)
		return b.Artifact(), nil
	})
	runner := &jobs.Runner{Cache: jobs.NewStore(filepath.Join(dir, "cache")), OutDir: dir}
	queue := []job{{name: "a", run: func(ctx context.Context) error {
		_, err := runner.Run(ctx, j)
		return err
	}}}
	for _, step := range []struct {
		graphFP string
		runs    int
		cached  bool
	}{
		{"graph-aaaa", 1, false},
		{"graph-bbbb", 2, false},
		{"graph-aaaa", 2, true},
	} {
		var buf bytes.Buffer
		runner.Env = jobs.Env{GraphFingerprint: step.graphFP}
		runner.Stdout = &buf
		if err := runJobs(context.Background(), queue, testRunnerConfig(0, true), nil, &buf); err != nil {
			t.Fatal(err)
		}
		if ran != step.runs || strings.Contains(buf.String(), "CACHED a") != step.cached {
			t.Fatalf("rerun over %s: %d runs, want %d; cached want %v:\n%s",
				step.graphFP, ran, step.runs, step.cached, buf.String())
		}
	}
}

// A cooperative job that returns nil shortly after its deadline fires
// is a success: the grace window lets its late output land before the
// next job starts.
func TestRunOneGraceAcceptsLateFinish(t *testing.T) {
	j := job{name: "late", run: func(ctx context.Context) error {
		<-ctx.Done()
		time.Sleep(10 * time.Millisecond) // simulate writing its files
		return nil
	}}
	if err := runOne(context.Background(), j, 30*time.Millisecond); err != nil {
		t.Fatalf("late-finishing job = %v, want nil", err)
	}
}

// A job that responds to its deadline with the context error still
// fails with a timeout.
func TestRunOneGraceStillTimesOut(t *testing.T) {
	j := job{name: "stubborn", run: func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	}}
	err := runOne(context.Background(), j, 30*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded in the chain", err)
	}
}
