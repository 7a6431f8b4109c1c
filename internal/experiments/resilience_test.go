package experiments

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/report"
	"github.com/trustnet/trustnet/internal/resilience"
)

// countCtx is a context whose Err() flips to DeadlineExceeded after a
// fixed number of calls. The runners and measurements consult Err() at
// deterministic points (per dataset, per Lanczos step, per walk
// step), so with Workers=1 the "kill" lands at exactly the same place on
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

// Kill-and-resume determinism for Table I: interrupt the run mid
// Lanczos iteration, then resume from the on-disk checkpoints (the cut
// dataset is measured again); the resumed table must be bit-identical to
// a never-interrupted run.
func TestTableIKillAndResumeDeterministic(t *testing.T) {
	base := Options{Quick: true, Seed: 1, Workers: 1}
	ref, err := TableI(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("reference run produced no rows")
	}

	store := resilience.NewStore(t.TempDir())
	cut := base
	cut.BestEffort = true
	cut.Ckpt = store
	partial, err := TableI(newCountCtx(60), cut)
	if err != nil {
		t.Fatalf("interrupted best-effort run: %v", err)
	}
	if !partial.Partial {
		t.Fatalf("interrupted run not partial (%d rows) — countCtx budget too large", len(partial.Rows))
	}
	last := partial.Rows[len(partial.Rows)-1]
	if !last.Partial || last.Coverage <= 0 || last.Coverage >= 1 {
		t.Fatalf("last row = %+v, want partial with coverage in (0,1)", last)
	}

	resumed := base
	resumed.Ckpt = store
	resumed.Resume = true
	got, err := TableI(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatal("resumed run still partial")
	}
	if len(got.Rows) != len(ref.Rows) {
		t.Fatalf("resumed run has %d rows, want %d", len(got.Rows), len(ref.Rows))
	}
	for i, want := range ref.Rows {
		have := got.Rows[i]
		if have.Name != want.Name || have.Nodes != want.Nodes || have.Edges != want.Edges {
			t.Fatalf("row %d = %+v, want %+v", i, have, want)
		}
		if math.Float64bits(have.SLEM) != math.Float64bits(want.SLEM) {
			t.Fatalf("row %d (%s): resumed SLEM %x differs from uninterrupted %x",
				i, want.Name, math.Float64bits(have.SLEM), math.Float64bits(want.SLEM))
		}
		if have.Converged != want.Converged || have.Partial {
			t.Fatalf("row %d (%s): Converged=%v Partial=%v, want %v and false",
				i, want.Name, have.Converged, have.Partial, want.Converged)
		}
	}

	// A third run resumes everything from done checkpoints — no
	// measurement at all — and still reproduces the table.
	again, err := TableI(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Rows {
		if math.Float64bits(again.Rows[i].SLEM) != math.Float64bits(ref.Rows[i].SLEM) {
			t.Fatalf("checkpoint-only rerun diverged on row %d", i)
		}
	}
}

// A row checkpointed by an older measurement method carries a
// fingerprint without the current artifact schema, so -resume measures
// that dataset again instead of splicing the old μ into the table.
func TestTableIResumeIgnoresOlderSchemaRows(t *testing.T) {
	base := Options{Quick: true, Seed: 1, Workers: 1}
	ref, err := TableI(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	first := ref.Rows[0]
	stale := first
	stale.SLEM = 0.5
	store := resilience.NewStore(t.TempDir())
	c := &resilience.Checkpoint{
		Job: "tableI-" + first.Name,
		// The fingerprint Table I used before the schema joined it.
		Fingerprint: resilience.Fingerprint("tableI", first.Name, true, int64(1), 3000, 1e-5, ""),
		Status:      resilience.StatusDone,
	}
	if err := c.SetPayload(stale); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(c); err != nil {
		t.Fatal(err)
	}
	resumed := base
	resumed.Ckpt = store
	resumed.Resume = true
	got, err := TableI(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.Rows[0].SLEM) != math.Float64bits(first.SLEM) {
		t.Fatalf("%s: resumed SLEM %v, want the fresh measurement %v, not the older row's %v",
			first.Name, got.Rows[0].SLEM, first.SLEM, stale.SLEM)
	}
}

// Kill-and-resume determinism for Figure 1's mixing curves.
func TestFigure1KillAndResumeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-dataset experiment is slow")
	}
	base := Options{Quick: true, Seed: 1, Workers: 1}
	ref, err := Figure1(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	store := resilience.NewStore(t.TempDir())
	cut := base
	cut.BestEffort = true
	cut.Ckpt = store
	// Enough Err() budget to finish some sources of the first dataset
	// (one call per fan-out item, one per walk step).
	partial, err := Figure1(newCountCtx(200), cut)
	if err != nil {
		t.Fatalf("interrupted best-effort run: %v", err)
	}
	if !partial.Partial {
		t.Fatal("interrupted run not partial — countCtx budget too large")
	}

	resumed := base
	resumed.Ckpt = store
	resumed.Resume = true
	got, err := Figure1(context.Background(), resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got.Partial {
		t.Fatal("resumed run still partial")
	}
	if len(got.PanelA) != len(ref.PanelA) || len(got.PanelB) != len(ref.PanelB) {
		t.Fatalf("panels = %d/%d, want %d/%d", len(got.PanelA), len(got.PanelB), len(ref.PanelA), len(ref.PanelB))
	}
	for i, want := range ref.PanelA {
		have := got.PanelA[i]
		for k := range want.Y {
			if math.Float64bits(have.Y[k]) != math.Float64bits(want.Y[k]) {
				t.Fatalf("PanelA %s point %d differs after resume", want.Name, k)
			}
		}
	}
	for i, want := range ref.PanelB {
		have := got.PanelB[i]
		for k := range want.Y {
			if math.Float64bits(have.Y[k]) != math.Float64bits(want.Y[k]) {
				t.Fatalf("PanelB %s point %d differs after resume", want.Name, k)
			}
		}
	}
	for name, want := range ref.MixingTimes {
		if got.MixingTimes[name] != want {
			t.Fatalf("MixingTimes[%s] = %d, want %d", name, got.MixingTimes[name], want)
		}
	}
}

// Regression: a best-effort deadline that cut a later dataset before any
// of its sources completed used to fail the whole run, throwing away the
// datasets already measured. The run must end as partial instead, with
// those datasets bit-identical to an uninterrupted run and no checkpoint
// for the cut dataset.
func TestFigure1BestEffortCutBeforeSalvage(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-dataset experiment is slow")
	}
	base := Options{Quick: true, Seed: 1, Workers: 1}
	ref, err := Figure1(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]report.Series(nil), ref.PanelA...), ref.PanelB...)
	// A quick dataset is one block of 10 sources: one Err() call for the
	// block and one per walk step.
	const perDataset = 61
	for _, done := range []int{10, 1} {
		store := resilience.NewStore(t.TempDir())
		cut := base
		cut.BestEffort = true
		cut.Ckpt = store
		partial, err := Figure1(newCountCtx(int64(done*perDataset+1)), cut)
		if err != nil {
			t.Fatalf("cut after %d datasets: %v", done, err)
		}
		if !partial.Partial {
			t.Fatalf("cut after %d datasets: run not partial", done)
		}
		got := append(append([]report.Series(nil), partial.PanelA...), partial.PanelB...)
		if len(got) != done {
			t.Fatalf("cut after %d datasets: %d series", done, len(got))
		}
		for i, s := range got {
			if s.Name != all[i].Name || !reflect.DeepEqual(s.Y, all[i].Y) || partial.Coverage[s.Name] != 1 {
				t.Fatalf("cut after %d datasets: %s differs from the uninterrupted run", done, s.Name)
			}
		}
		name := all[done].Name
		if _, ok := partial.Coverage[name]; ok {
			t.Fatalf("cut dataset %s has a coverage entry", name)
		}
		if _, err := os.Stat(store.Path("figure1-" + name)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("cut dataset %s left a checkpoint (stat: %v)", name, err)
		}
	}
	// Cut before the first dataset salvages anything: nothing to keep.
	cut := base
	cut.BestEffort = true
	if _, err := Figure1(newCountCtx(1), cut); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cut inside the first dataset = %v, want the deadline error", err)
	}
	// The job files the salvaged panel and skips the empty second one.
	reg, err := Jobs(cut)
	if err != nil {
		t.Fatal(err)
	}
	j, err := reg.Lookup("figure1")
	if err != nil {
		t.Fatal(err)
	}
	art, err := j.Run(newCountCtx(perDataset+1), jobs.Env{})
	if !errors.Is(err, context.DeadlineExceeded) || art == nil || !art.Partial {
		t.Fatalf("figure1 job = (%v, %v), want a partial artifact with the deadline error", art, err)
	}
	var paths []string
	for _, f := range art.Files {
		paths = append(paths, f.Path)
	}
	if want := []string{"figure1a.csv", "figure1-sources.csv"}; !reflect.DeepEqual(paths, want) {
		t.Fatalf("partial figure1 files = %v, want %v", paths, want)
	}
}

// Regression: Figure 3 and Figure 4 dropped expansion.Result.Partial, so
// a best-effort run cut mid-dataset came back as a complete artifact that
// the job runner cached and replayed. Cut inside the first dataset of the
// all-cores run, after its first 64-core batch, each job must return a
// partial artifact holding only that dataset, with the deadline error.
func TestFigure34BestEffortPartialNotCached(t *testing.T) {
	if testing.Short() {
		t.Skip("all-cores expansion is slow")
	}
	opts := Options{Seed: 1, Workers: 1, BestEffort: true}
	reg, err := Jobs(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"figure3", "figure4"} {
		j, err := reg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		// Err() is consulted once per batch at Workers=1: a budget of 1
		// completes the first batch and cuts the second.
		art, err := j.Run(newCountCtx(1), jobs.Env{})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want the deadline error", name, err)
		}
		if art == nil || !art.Partial {
			t.Fatalf("%s: artifact %v not marked partial", name, art)
		}
	}
	r3, err := Figure3(newCountCtx(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Partial || len(r3.Panels) != 1 {
		t.Fatalf("figure 3: Partial=%v with %d panels, want one partial panel", r3.Partial, len(r3.Panels))
	}
	r4, err := Figure4(newCountCtx(1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Partial || len(r4.PanelA)+len(r4.PanelB) != 1 {
		t.Fatalf("figure 4: Partial=%v with %d series, want one partial series", r4.Partial, len(r4.PanelA)+len(r4.PanelB))
	}
}
