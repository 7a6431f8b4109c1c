package spectral

import (
	"context"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/gen"
)

// countCtx is a context whose Err() flips to DeadlineExceeded after a
// fixed number of calls. SLEMContext consults Err() exactly once per
// Lanczos step, so the interruption lands at the same iteration on
// every run — unlike a wall-clock deadline.
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

func TestSLEMContextBestEffortPartial(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 5, Workers: 1, MaxIterations: 500, Tolerance: 1e-300}
	cfg.BestEffort = true
	r, err := SLEMContext(newCountCtx(40), g, cfg)
	if err != nil {
		t.Fatalf("best-effort run returned error: %v", err)
	}
	if !r.Partial || r.Converged {
		t.Fatalf("interrupted run: Partial=%v Converged=%v", r.Partial, r.Converged)
	}
	if r.Iterations != 40 {
		t.Fatalf("Iterations = %d, want exactly 40 (one Err() check per step)", r.Iterations)
	}
	if cov := r.Coverage; cov <= 0 || cov >= 1 {
		t.Fatalf("Coverage = %v, want in (0, 1)", cov)
	}
	if math.IsInf(r.SLEM, 0) || math.IsNaN(r.SLEM) {
		t.Fatalf("salvaged SLEM estimate = %v", r.SLEM)
	}

	// Without BestEffort the same interruption is an error.
	cfg.BestEffort = false
	if _, err := SLEMContext(newCountCtx(40), g, cfg); err == nil {
		t.Fatal("without BestEffort, interrupted run returned no error")
	}

	// Zero completed iterations has nothing to salvage.
	cfg.BestEffort = true
	if _, err := SLEMContext(newCountCtx(0), g, cfg); err == nil {
		t.Fatal("zero-iteration best-effort run returned no error")
	}
}
