package expansion

import (
	"context"
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/gen"
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

func TestMeasureBestEffortPartial(t *testing.T) {
	g, err := gen.BarabasiAlbert(80, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Workers: 1, BestEffort: true}
	// Err() is consulted once per 64-core batch: a budget of 1 completes
	// the first batch and cuts the second, 64 of the 80 cores.
	r, err := Measure(newCountCtx(1), g, cfg)
	if err != nil {
		t.Fatalf("best-effort run returned error: %v", err)
	}
	if !r.Partial {
		t.Fatal("interrupted run not flagged Partial")
	}
	if r.Completed <= 0 || r.Completed >= r.Sources {
		t.Fatalf("Completed = %d of %d, want strictly between", r.Completed, r.Sources)
	}
	if cov := r.Coverage(); cov <= 0 || cov >= 1 {
		t.Fatalf("Coverage() = %v, want in (0, 1)", cov)
	}

	// Without BestEffort the same interruption is an error.
	cfg.BestEffort = false
	if _, err := Measure(newCountCtx(1), g, cfg); err == nil || !isInterrupt(err) {
		t.Fatalf("without BestEffort, interrupted run = %v, want deadline error", err)
	}

	// Zero coverage has nothing to salvage even in best-effort mode.
	cfg.BestEffort = true
	if _, err := Measure(newCountCtx(0), g, cfg); err == nil || !isInterrupt(err) {
		t.Fatalf("zero-coverage best-effort run = %v, want deadline error", err)
	}
}

// The resilience contract: interrupt a run, checkpoint it through a JSON
// round-trip (as internal/resilience would), resume, and the final
// result is bit-identical to the never-interrupted measurement.
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

	cut := cfg
	cut.BestEffort = true
	partial, err := Measure(newCountCtx(1), g, cut)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Partial || partial.Completed == 0 {
		t.Fatalf("setup: expected a partial result, got %+v", partial)
	}

	data, err := json.Marshal(partial.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	var ckpt Checkpoint
	if err := json.Unmarshal(data, &ckpt); err != nil {
		t.Fatal(err)
	}

	resumed := cfg
	resumed.Resume = &ckpt
	got, err := Measure(context.Background(), g, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial || got.Completed != got.Sources || got.Coverage() != 1 {
		t.Fatalf("resumed run incomplete: completed %d of %d", got.Completed, got.Sources)
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

// Resume on the bit-parallel kernel path, where the cut lands between
// 64-core batches.
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
	cut := cfg
	cut.BestEffort = true
	// Err() is consulted once per 64-wide batch: budget 4 cuts the run
	// after roughly 256 of the 600 cores.
	partial, err := Measure(newCountCtx(4), g, cut)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Partial {
		t.Fatalf("setup: expected a partial result, got coverage %v", partial.Coverage())
	}
	resumed := cfg
	resumed.Resume = partial.Checkpoint()
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
