package experiments

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/jobs"
)

// countCtx is a context whose Err() flips to DeadlineExceeded after a
// fixed number of calls. The runners and measurements consult Err() at
// deterministic points (per dataset, per block of walk sources, per walk
// step), so with Workers=1 the cut lands at exactly the same place on
// every run — a reproducible stand-in for a wall-clock deadline or a
// killed process.
type countCtx struct {
	context.Context
	calls   atomic.Int64
	budget  int64
	expired atomic.Bool
}

func newCountCtx(budget int64) *countCtx {
	return &countCtx{Context: context.Background(), budget: budget}
}

func (c *countCtx) Err() error {
	if c.calls.Add(1) > c.budget || c.expired.Load() {
		c.expired.Store(true)
		return context.DeadlineExceeded
	}
	return nil
}

func (c *countCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// A run cut mid-job recovers at job granularity. tableI finishes and
// is cached; figure1, cut by a deadline inside its fourth dataset, fails
// with the deadline error, writes no file and caches nothing. The rerun
// replays tableI from the cache and runs figure1 again from its start,
// and all four files equal an uninterrupted run's byte for byte.
func TestCutRunRerunsOnlyTheCutJob(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-dataset experiment is slow")
	}
	reg, err := Jobs(Options{Quick: true, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tableI, err := reg.Lookup("tableI")
	if err != nil {
		t.Fatal(err)
	}
	figure1, err := reg.Lookup("figure1")
	if err != nil {
		t.Fatal(err)
	}
	files := []string{"tableI.txt", "figure1a.csv", "figure1b.csv", "figure1-sources.csv"}

	ref := &jobs.Runner{OutDir: t.TempDir()}
	for _, j := range []jobs.Job{tableI, figure1} {
		if _, err := ref.Run(context.Background(), j); err != nil {
			t.Fatalf("uninterrupted %s: %v", j.Name(), err)
		}
	}

	dir := t.TempDir()
	cache := jobs.NewStore(filepath.Join(dir, "cache"))
	r := &jobs.Runner{Cache: cache, OutDir: dir}
	if cached, err := r.Run(context.Background(), tableI); err != nil || cached {
		t.Fatalf("tableI: cached=%v err=%v, want a fresh run", cached, err)
	}
	// A quick dataset is one block of 10 sources walked 60 steps: one
	// Err() call for the block and one per step, 61 per dataset.
	if _, err := r.Run(newCountCtx(200), figure1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cut figure1: err = %v, want the deadline error", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "figure1a.csv")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("cut figure1 wrote figure1a.csv (stat: %v)", err)
	}
	if st, err := cache.Stats(); err != nil || st.Entries != 1 {
		t.Fatalf("cache after the cut run = %+v, %v; want only tableI's entry", st, err)
	}

	for _, step := range []struct {
		j      jobs.Job
		cached bool
	}{{tableI, true}, {figure1, false}} {
		cached, err := r.Run(context.Background(), step.j)
		if err != nil || cached != step.cached {
			t.Fatalf("rerun %s: cached=%v err=%v, want cached=%v", step.j.Name(), cached, err, step.cached)
		}
	}
	for _, f := range files {
		want, err := os.ReadFile(filepath.Join(ref.OutDir, f))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s after the rerun differs from the uninterrupted run's", f)
		}
	}
}
