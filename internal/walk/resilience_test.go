package walk

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
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

// testMixingConfig measures one full block of kernels.DefaultBlockWidth
// sources and a partial second block.
func testMixingConfig() MixingConfig {
	return MixingConfig{MaxSteps: 20, Sources: 24, Lazy: true, Seed: 11, Workers: 1}
}

// firstBlockBudget is an Err() budget that lets the first block finish
// (one call for the block plus one per walk step) and cuts the second
// block halfway through its walk.
func firstBlockBudget(cfg MixingConfig) int64 {
	return int64(cfg.MaxSteps+1) + int64(cfg.MaxSteps/2)
}

func TestMeasureMixingBestEffortPartial(t *testing.T) {
	g, err := gen.BarabasiAlbert(120, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testMixingConfig()
	cfg.BestEffort = true
	ctx := newCountCtx(firstBlockBudget(cfg))
	r, err := MeasureMixing(ctx, g, cfg)
	if err != nil {
		t.Fatalf("best-effort run returned error: %v", err)
	}
	if !r.Partial {
		t.Fatal("interrupted run not flagged Partial")
	}
	if r.Completed <= 0 || r.Completed >= cfg.Sources {
		t.Fatalf("Completed = %d, want strictly between 0 and %d", r.Completed, cfg.Sources)
	}
	if cov := r.Coverage(); cov <= 0 || cov >= 1 {
		t.Fatalf("Coverage() = %v, want in (0, 1)", cov)
	}
	// Salvaged curves are intact, cut-off sources are nil.
	done := 0
	for i, curve := range r.Curves {
		if curve == nil {
			continue
		}
		done++
		if len(curve) != cfg.MaxSteps {
			t.Fatalf("salvaged curve %d has %d steps, want %d", i, len(curve), cfg.MaxSteps)
		}
	}
	if done != r.Completed {
		t.Fatalf("non-nil curves = %d, Completed = %d", done, r.Completed)
	}
	// Aggregates fold only completed curves; they must be finite.
	for tstep := range r.MeanTVD {
		if math.IsInf(r.MinTVD[tstep], 1) || math.IsNaN(r.MeanTVD[tstep]) {
			t.Fatalf("aggregate at step %d not folded: min=%v mean=%v", tstep, r.MinTVD[tstep], r.MeanTVD[tstep])
		}
	}
}

func TestMeasureMixingBestEffortOffPropagatesDeadline(t *testing.T) {
	g, err := gen.BarabasiAlbert(120, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testMixingConfig()
	ctx := newCountCtx(firstBlockBudget(cfg))
	if _, err := MeasureMixing(ctx, g, cfg); err == nil || !isInterrupt(err) {
		t.Fatalf("without BestEffort, interrupted run = %v, want deadline error", err)
	}
}

func TestMeasureMixingBestEffortZeroCoverageStillErrors(t *testing.T) {
	g, err := gen.BarabasiAlbert(120, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testMixingConfig()
	cfg.BestEffort = true
	// Budget 0: nothing completes, so there is nothing to salvage.
	if _, err := MeasureMixing(newCountCtx(0), g, cfg); err == nil || !isInterrupt(err) {
		t.Fatalf("zero-coverage best-effort run = %v, want deadline error", err)
	}
}

// The resilience contract: interrupt a run, checkpoint it through a JSON
// round-trip (as internal/resilience would), resume, and the final
// result is bit-identical to the never-interrupted measurement.
func TestMeasureMixingResumeBitIdentical(t *testing.T) {
	g, err := gen.BarabasiAlbert(120, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testMixingConfig()
	ref, err := MeasureMixing(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cut := cfg
	cut.BestEffort = true
	partial, err := MeasureMixing(newCountCtx(firstBlockBudget(cfg)), g, cut)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Partial || partial.Completed == 0 {
		t.Fatalf("setup: expected a partial result, got %+v", partial)
	}

	// Serialize the checkpoint the way the checkpoint store does.
	data, err := json.Marshal(partial.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	var ckpt MixingCheckpoint
	if err := json.Unmarshal(data, &ckpt); err != nil {
		t.Fatal(err)
	}

	resumed := cfg
	resumed.Resume = &ckpt
	got, err := MeasureMixing(context.Background(), g, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial || got.Completed != cfg.Sources || got.Coverage() != 1 {
		t.Fatalf("resumed run incomplete: %+v", got)
	}
	for i := range ref.Curves {
		for tstep := range ref.Curves[i] {
			if math.Float64bits(ref.Curves[i][tstep]) != math.Float64bits(got.Curves[i][tstep]) {
				t.Fatalf("curve[%d][%d] differs after resume: %x vs %x", i, tstep,
					math.Float64bits(ref.Curves[i][tstep]), math.Float64bits(got.Curves[i][tstep]))
			}
		}
	}
	if !reflect.DeepEqual(ref.MeanTVD, got.MeanTVD) ||
		!reflect.DeepEqual(ref.MaxTVD, got.MaxTVD) ||
		!reflect.DeepEqual(ref.MinTVD, got.MinTVD) {
		t.Fatal("aggregates differ between resumed and uninterrupted runs")
	}
}

// Resume must also reproduce the uninterrupted result on the blocked
// kernel path, where the cut can land mid-block.
func TestMeasureMixingResumeKernelPath(t *testing.T) {
	g, err := gen.BarabasiAlbert(150, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testMixingConfig()
	cfg.Sources = 40
	ref, err := MeasureMixing(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := cfg
	cut.BestEffort = true
	// The blocked kernel consults Err() once per step per block, so this
	// budget lets the first block finish and cuts the second.
	partial, err := MeasureMixing(newCountCtx(firstBlockBudget(cfg)), g, cut)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Partial {
		t.Fatalf("setup: expected a partial result, got coverage %v", partial.Coverage())
	}
	resumed := cfg
	resumed.Resume = partial.Checkpoint()
	got, err := MeasureMixing(context.Background(), g, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Curves, got.Curves) {
		t.Fatal("kernel-path curves differ between resumed and uninterrupted runs")
	}
}

func TestMeasureMixingResumeMismatchRejected(t *testing.T) {
	g, err := gen.BarabasiAlbert(120, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testMixingConfig()
	r, err := MeasureMixing(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Different seed samples different sources: the checkpoint is stale.
	stale := cfg
	stale.Seed++
	stale.Resume = r.Checkpoint()
	if _, err := MeasureMixing(context.Background(), g, stale); err == nil {
		t.Fatal("stale checkpoint (different sources) accepted")
	}
	// Different step budget: curves have the wrong length.
	short := cfg
	short.MaxSteps++
	short.Resume = r.Checkpoint()
	if _, err := MeasureMixing(context.Background(), g, short); err == nil {
		t.Fatal("stale checkpoint (different MaxSteps) accepted")
	}
	// A fully-done checkpoint resumes to the identical result without
	// re-measuring anything.
	done := cfg
	done.Resume = r.Checkpoint()
	got, err := MeasureMixing(context.Background(), g, done)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.MeanTVD, got.MeanTVD) {
		t.Fatal("resuming a complete checkpoint changed the result")
	}
}

// Guard against graph.NodeID changing width: the checkpoint JSON wire
// format encodes sources as numbers and must keep doing so.
func TestMixingCheckpointJSONShape(t *testing.T) {
	c := &MixingCheckpoint{Sources: []graph.NodeID{1, 2}, Curves: [][]float64{{0.5}, nil}}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"sources":[1,2],"curves":[[0.5],null]}`
	if string(data) != want {
		t.Fatalf("wire format = %s, want %s", data, want)
	}
}
