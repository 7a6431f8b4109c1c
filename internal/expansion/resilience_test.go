package expansion

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/stats"
)

// countCtx is a context whose Err() flips to DeadlineExceeded after a
// fixed number of calls. With Workers=1 the measurement is sequential
// and consults Err() at deterministic points (once per 64-core batch),
// so the interruption lands at exactly the same place on every run —
// unlike a wall-clock deadline.
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

// sameSummaries compares two keyed summaries field by field (count, min,
// max, mean, variance) over identical key sets.
func sameSummaries(a, b *stats.KeyedSummary) bool {
	ka, kb := a.Keys(), b.Keys()
	if !reflect.DeepEqual(ka, kb) {
		return false
	}
	for _, k := range ka {
		sa, _ := a.Get(k)
		sb, _ := b.Get(k)
		if sa.Count() != sb.Count() || sa.Min() != sb.Min() || sa.Max() != sb.Max() ||
			sa.Mean() != sb.Mean() || sa.Variance() != sb.Variance() {
			return false
		}
	}
	return true
}

// A deadline that cuts the measurement, before the first 64-core batch
// or after it (Err() is consulted once per batch at Workers=1), is the
// measurement's error: no result comes back.
func TestMeasureDeadlineIsError(t *testing.T) {
	g, err := gen.BarabasiAlbert(80, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1} {
		r, err := Measure(newCountCtx(budget), g, Config{Workers: 1})
		if !errors.Is(err, context.DeadlineExceeded) || r != nil {
			t.Fatalf("budget %d: Measure = (%v, %v), want no result and the deadline error", budget, r, err)
		}
	}
}

// An empty, non-nil source list has no core to measure and is an error,
// unlike a nil list, which means every node.
func TestMeasureEmptySourcesIsError(t *testing.T) {
	g, err := gen.BarabasiAlbert(80, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := Measure(context.Background(), g, Config{Sources: []graph.NodeID{}, Workers: 1}); err == nil {
		t.Fatalf("empty source list measured: %+v", r)
	}
}

// partialCheckpoint keeps the levels of cores 0, every, 2·every, … of a
// complete result and leaves the other cores unmeasured.
func partialCheckpoint(r *Result, every int) *Checkpoint {
	full := r.Checkpoint()
	levels := make([][]int64, len(full.Levels))
	for i := 0; i < len(levels); i += every {
		levels[i] = full.Levels[i]
	}
	return &Checkpoint{Sources: full.Sources, Levels: levels}
}

// Resuming from a checkpoint that holds every second core's levels
// measures the rest and reproduces the uninterrupted result bit for bit.
func TestMeasureResumeBitIdentical(t *testing.T) {
	g, err := gen.BarabasiAlbert(80, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1}
	ref, err := Measure(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed := cfg
	resumed.Resume = partialCheckpoint(ref, 2)
	got, err := Measure(context.Background(), g, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxEccentricity != ref.MaxEccentricity {
		t.Fatalf("MaxEccentricity = %d, want %d", got.MaxEccentricity, ref.MaxEccentricity)
	}
	if !sameSummaries(ref.NeighborsBySetSize, got.NeighborsBySetSize) {
		t.Fatal("NeighborsBySetSize differs between resumed and uninterrupted runs")
	}
	if !sameSummaries(ref.FactorBySetSize, got.FactorBySetSize) {
		t.Fatal("FactorBySetSize differs between resumed and uninterrupted runs")
	}
}

// Resume on the bit-parallel kernel path: the 400 unmeasured cores of a
// checkpoint holding every third core run as 64-core batches.
func TestMeasureResumeKernelPath(t *testing.T) {
	g, err := gen.BarabasiAlbert(600, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1}
	ref, err := Measure(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resumed := cfg
	resumed.Resume = partialCheckpoint(ref, 3)
	got, err := Measure(context.Background(), g, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSummaries(ref.FactorBySetSize, got.FactorBySetSize) {
		t.Fatal("kernel-path aggregates differ between resumed and uninterrupted runs")
	}
}

func TestMeasureResumeMismatchRejected(t *testing.T) {
	g, err := gen.BarabasiAlbert(80, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	sources, err := SampledSources(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Measure(context.Background(), g, Config{Sources: sources, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	other, err := SampledSources(g, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(context.Background(), g, Config{
		Sources: other, Workers: 1, Resume: r.Checkpoint(),
	}); err == nil {
		t.Fatal("stale checkpoint (different sources) accepted")
	}
}
