package experiments

import (
	"context"
	"fmt"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/incremental"
	"github.com/trustnet/trustnet/internal/parallel"
	"github.com/trustnet/trustnet/internal/report"
	"github.com/trustnet/trustnet/internal/spectral"
)

// epochSweepGraph generates the community graph the epoch sweep runs
// on. It is clustered rather than plain preferential-attachment so it
// has the paper's slow-mixer shape: weakly bridged communities, μ close
// to 1, and epochs in which a lost bridge re-levels whole communities
// of the BFS envelope.
func epochSweepGraph(opts *Options) (*graph.Graph, error) {
	g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities:   opts.pick(10, 50),
		CommunitySize: 200,
		Attach:        8,
		Bridges:       4,
		Seed:          97,
	})
	return g, err
}

// epochSweepFaultConfig is the drifting fault schedule the sweep
// advances through: stationary marginals match the churn experiments,
// but consecutive epochs evolve (small deltas) instead of redrawing.
func epochSweepFaultConfig(seed int64) faults.Config {
	return faults.Config{Churn: 0.1, EdgeLoss: 0.05, Drift: 0.005, Seed: seed}
}

// epochSweepSources samples the BFS envelope sources on a stream
// decorrelated from the fault schedule. graph.SampleNodes and the
// epoch-0 churn draw both shuffle the node list from a raw
// rand.NewSource, so handing both the root seed would make the sampled
// sources exactly the churned-out prefix of the same permutation —
// every source dead at epoch 0.
func epochSweepSources(g *graph.Graph, opts *Options) ([]graph.NodeID, error) {
	return expansion.SampledSources(g, opts.pick(128, 1024), parallel.SeedFor(opts.Seed, 0))
}

// EpochSweepPoint is one epoch's structural measurements.
type EpochSweepPoint struct {
	Epoch           int
	Degeneracy      int
	SLEM            float64
	ComponentSize   int
	MaxEccentricity int
}

// EpochSweepResult tracks the three §III structural metrics across a
// drifting fault schedule, measured either from scratch every epoch or
// through the incremental engine (Options.Incremental).
type EpochSweepResult struct {
	Points      []EpochSweepPoint
	Incremental bool
}

// Table renders the sweep. It carries no wall-clock figure: the epochs
// artifact is content-addressed and must render byte-identically on a
// rerun, and METRICS.json already records each job's wall time.
func (r *EpochSweepResult) Table() (*report.Table, error) {
	mode := "full recompute per epoch"
	if r.Incremental {
		mode = "incremental maintainers"
	}
	t := report.NewTable(
		fmt.Sprintf("Epoch sweep: structural metrics under drifting faults (%s)", mode),
		"Epoch", "Degeneracy", "mu", "Component", "Max ecc")
	for _, p := range r.Points {
		if err := t.AddRow(report.Int(p.Epoch), report.Int(p.Degeneracy),
			report.Float(p.SLEM, 4), report.Int(p.ComponentSize),
			report.Int(p.MaxEccentricity)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// EpochSweep measures degeneracy, SLEM, and the expansion envelope at
// every epoch of a drifting fault schedule. With Options.Incremental
// the three measurements ride the internal/incremental engine (cores
// decomposed on each epoch's CSR, delta-repaired expansion,
// warm-started SLEM); otherwise each epoch recomputes from scratch.
// Both modes walk identical schedules, so their integer columns agree
// exactly and μ agrees within 1e-4 (see Options.Incremental).
func EpochSweep(ctx context.Context, opts Options) (*EpochSweepResult, error) {
	opts.fill()
	g, err := epochSweepGraph(&opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: epoch sweep: %w", err)
	}
	srcs, err := epochSweepSources(g, &opts)
	if err != nil {
		return nil, fmt.Errorf("experiments: epoch sweep: %w", err)
	}
	ecfg := incremental.EngineConfig{
		Sources:  srcs,
		Spectral: spectral.Config{Tolerance: 1e-8, Seed: opts.Seed, Workers: opts.Workers},
		Workers:  opts.Workers,
	}
	epochs := opts.pick(4, 16)
	m, err := faults.New(g, epochSweepFaultConfig(opts.Seed))
	if err != nil {
		return nil, fmt.Errorf("experiments: epoch sweep: %w", err)
	}

	res := &EpochSweepResult{Incremental: opts.Incremental}
	var en *incremental.Engine
	if opts.Incremental {
		if en, err = incremental.NewEngine(m, ecfg); err != nil {
			return nil, fmt.Errorf("experiments: epoch sweep: %w", err)
		}
	}
	for e := 0; e < epochs; e++ {
		var meas *incremental.EpochMeasurement
		if en != nil {
			if e > 0 {
				en.Advance()
			}
			if meas, err = en.Measure(ctx); err != nil {
				return nil, fmt.Errorf("experiments: epoch sweep epoch %d: %w", e, err)
			}
		} else {
			if e > 0 {
				m.AdvanceEpoch()
			}
			if meas, err = incremental.MeasureFull(ctx, m.View(), ecfg); err != nil {
				return nil, fmt.Errorf("experiments: epoch sweep epoch %d: %w", e, err)
			}
		}
		res.Points = append(res.Points, EpochSweepPoint{
			Epoch:           e,
			Degeneracy:      meas.Degeneracy,
			SLEM:            meas.SLEM.SLEM,
			ComponentSize:   meas.ComponentSize,
			MaxEccentricity: meas.Expansion.MaxEccentricity,
		})
	}
	return res, nil
}
