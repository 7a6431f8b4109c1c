package spectral

import (
	"context"
	"errors"
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

// A deadline that cuts the Lanczos iteration, before its first step or
// after 40 of them, is the measurement's error: no estimate comes back.
func TestSLEMContextDeadlineIsError(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 5, Workers: 1, MaxIterations: 500, Tolerance: 1e-300, KeepVector: true}
	for _, budget := range []int64{0, 40} {
		r, err := SLEMContext(newCountCtx(budget), g, cfg)
		if !errors.Is(err, context.DeadlineExceeded) || r != nil {
			t.Fatalf("budget %d: SLEMContext = (%v, %v), want no result and the deadline error", budget, r, err)
		}
	}
}
