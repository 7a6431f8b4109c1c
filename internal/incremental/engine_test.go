package incremental

import (
	"context"
	"math"
	"testing"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/kcore"
	"github.com/trustnet/trustnet/internal/parallel"
	"github.com/trustnet/trustnet/internal/spectral"
)

// engineFaults is the drifting schedule the BA sweep tests advance
// through.
var engineFaults = faults.Config{Churn: 0.08, EdgeLoss: 0.04, Drift: 0.015, Seed: 21}

func engineModel(t *testing.T, g *graph.Graph) *faults.Model {
	t.Helper()
	m, err := faults.New(g, engineFaults)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// epochRecord is the comparable footprint of one epoch's measurement.
type epochRecord struct {
	cores      []int
	degeneracy int
	levels     [][]int64
	slem       float64
	compSize   int
}

func recordEpoch(t *testing.T, en *Engine) epochRecord {
	t.Helper()
	meas, err := en.Measure(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ck := meas.Expansion.Checkpoint()
	levels := make([][]int64, len(ck.Levels))
	for i, ls := range ck.Levels {
		levels[i] = append([]int64(nil), ls...)
	}
	return epochRecord{
		cores:      append([]int(nil), en.Cores()...),
		degeneracy: meas.Degeneracy,
		levels:     levels,
		slem:       meas.SLEM.SLEM,
		compSize:   meas.ComponentSize,
	}
}

// fullRecord measures view from scratch: cores by kcore.Decompose, the
// rest by MeasureFull.
func fullRecord(t *testing.T, view *graph.MaskedView, cfg EngineConfig) epochRecord {
	t.Helper()
	dec, err := kcore.Decompose(view)
	if err != nil {
		t.Fatal(err)
	}
	full, err := MeasureFull(context.Background(), view, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return epochRecord{
		cores:      dec.CorenessValues(),
		degeneracy: full.Degeneracy,
		levels:     full.Expansion.Checkpoint().Levels,
		slem:       full.SLEM.SLEM,
		compSize:   full.ComponentSize,
	}
}

func compareEpochRecords(t *testing.T, epoch int, a, b epochRecord, slemTol float64) {
	t.Helper()
	for v := range a.cores {
		if a.cores[v] != b.cores[v] {
			t.Fatalf("epoch %d: core(%d) diverged: %d vs %d", epoch, v, a.cores[v], b.cores[v])
		}
	}
	if a.degeneracy != b.degeneracy {
		t.Fatalf("epoch %d: degeneracy diverged: %d vs %d", epoch, a.degeneracy, b.degeneracy)
	}
	for i := range a.levels {
		if len(a.levels[i]) != len(b.levels[i]) {
			t.Fatalf("epoch %d source %d: level counts diverged: %v vs %v", epoch, i, a.levels[i], b.levels[i])
		}
		for d := range a.levels[i] {
			if a.levels[i][d] != b.levels[i][d] {
				t.Fatalf("epoch %d source %d level %d: %d vs %d", epoch, i, d, a.levels[i][d], b.levels[i][d])
			}
		}
	}
	if diff := math.Abs(a.slem - b.slem); diff > slemTol {
		t.Fatalf("epoch %d: SLEM diverged: %.12f vs %.12f (diff %.3g > %g)", epoch, a.slem, b.slem, diff, slemTol)
	}
	if a.compSize != b.compSize {
		t.Fatalf("epoch %d: component size diverged: %d vs %d", epoch, a.compSize, b.compSize)
	}
}

// TestKillAndResumeEngineEquivalence kills a sweep mid-flight and
// resumes it cold: the fault schedule replays to the kill epoch with
// SetEpoch, a fresh Engine rebuilds there, and the resumed epochs must
// match the uninterrupted run — bit-identical cores and expansion,
// SLEM within tolerance (the warm-start lineage differs, the
// convergence target does not).
func TestKillAndResumeEngineEquivalence(t *testing.T) {
	g := sweepGraph(t)
	cfg := EngineConfig{Sources: expansionSources(t, g, 8), Workers: 1}

	// Uninterrupted run: epochs 0..8.
	m1 := engineModel(t, g)
	en1, err := NewEngine(m1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	records := make([]epochRecord, 0, 9)
	records = append(records, recordEpoch(t, en1))
	for e := 1; e <= 8; e++ {
		en1.Advance()
		records = append(records, recordEpoch(t, en1))
	}

	// "Killed" at epoch 4: replay the schedule, rebuild, continue.
	const killAt = 4
	m2 := engineModel(t, g)
	if err := m2.SetEpoch(killAt); err != nil {
		t.Fatal(err)
	}
	en2, err := NewEngine(m2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareEpochRecords(t, killAt, records[killAt], recordEpoch(t, en2), 1e-6)
	for e := killAt + 1; e <= 8; e++ {
		en2.Advance()
		if en2.Epoch() != e {
			t.Fatalf("resumed engine at epoch %d, want %d", en2.Epoch(), e)
		}
		compareEpochRecords(t, e, records[e], recordEpoch(t, en2), 1e-6)
	}
}

// TestEquivalenceEngineVsFullSweep validates every engine epoch
// against from-scratch baselines on the same view: per-node cores
// against kcore.Decompose, the rest against MeasureFull. The clustered
// row is the quick epoch sweep of internal/experiments (graph, fault
// schedule, sources, spectral settings), where the core repair runs
// incrementally instead of falling back as it does on the single-
// plateau BA graph; its μ band is the one Options.Incremental there
// documents for a 1e-8 stopping tolerance.
func TestEquivalenceEngineVsFullSweep(t *testing.T) {
	ba := sweepGraph(t)
	clustered, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities: 10, CommunitySize: 200, Attach: 8, Bridges: 4, Seed: 97,
	})
	if err != nil {
		t.Fatal(err)
	}
	clusteredSources, err := expansion.SampledSources(clustered, 128, parallel.SeedFor(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name    string
		g       *graph.Graph
		faults  faults.Config
		cfg     EngineConfig
		epochs  int
		slemTol float64
		// wantCoreInc requires at least one Advance to repair the
		// cores incrementally.
		wantCoreInc bool
	}{
		{
			name: "ba-3000", g: ba, faults: engineFaults,
			cfg:    EngineConfig{Sources: expansionSources(t, ba, 8), Workers: 1},
			epochs: 6, slemTol: 1e-8,
		},
		{
			name: "clustered-sweep", g: clustered,
			faults: faults.Config{Churn: 0.1, EdgeLoss: 0.05, Drift: 0.005, Seed: 1},
			cfg: EngineConfig{
				Sources:  clusteredSources,
				Spectral: spectral.Config{Tolerance: 1e-8, Seed: 1},
				Workers:  1,
			},
			epochs: 3, slemTol: 1e-4, wantCoreInc: true,
		},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			m, err := faults.New(r.g, r.faults)
			if err != nil {
				t.Fatal(err)
			}
			en, err := NewEngine(m, r.cfg)
			if err != nil {
				t.Fatal(err)
			}
			coreInc := 0
			for e := 0; e <= r.epochs; e++ {
				if e > 0 && en.Advance() {
					coreInc++
				}
				compareEpochRecords(t, e, recordEpoch(t, en), fullRecord(t, m.View(), r.cfg), r.slemTol)
			}
			if r.wantCoreInc && coreInc == 0 {
				t.Fatalf("no Advance of %d repaired the cores incrementally", r.epochs)
			}
		})
	}
}
