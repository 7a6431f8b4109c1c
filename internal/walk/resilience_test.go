package walk

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/gen"
)

// countCtx is a context whose Err() flips to DeadlineExceeded after a
// fixed number of calls. With Workers=1 the measurement is sequential
// and consults Err() at deterministic points (once per block of sources,
// once per walk step), so the interruption lands at exactly the same
// place on every run — unlike a wall-clock deadline.
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

// A deadline that cuts the measurement, before the first block or after
// the first block finished and halfway through the second, is the
// measurement's error: no result comes back.
func TestMeasureMixingDeadlineIsError(t *testing.T) {
	g, err := gen.BarabasiAlbert(120, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// One full block of kernels.DefaultBlockWidth sources and a partial
	// second block.
	cfg := MixingConfig{MaxSteps: 20, Sources: 24, Lazy: true, Seed: 11, Workers: 1}
	// One Err() call for the first block plus one per walk step, then
	// half the second block's steps.
	midRun := int64(cfg.MaxSteps+1) + int64(cfg.MaxSteps/2)
	for _, budget := range []int64{0, midRun} {
		r, err := MeasureMixing(newCountCtx(budget), g, cfg)
		if !errors.Is(err, context.DeadlineExceeded) || r != nil {
			t.Fatalf("budget %d: MeasureMixing = (%v, %v), want no result and the deadline error", budget, r, err)
		}
	}
}
