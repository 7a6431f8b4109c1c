package incremental

import (
	"context"
	"fmt"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/kcore"
	"github.com/trustnet/trustnet/internal/obs"
	"github.com/trustnet/trustnet/internal/parallel"
	"github.com/trustnet/trustnet/internal/spectral"
)

// obsEngineAdvances counts the epoch engine's Advance calls.
var obsEngineAdvances = obs.Default().Counter("incremental.engine.advances")

// EngineConfig configures an epoch measurement engine.
type EngineConfig struct {
	// Sources are the BFS sources for the expansion envelope. Required.
	Sources []graph.NodeID
	// Spectral configures the SLEM's Lanczos iteration (Warm and
	// KeepVector are managed by the engine).
	Spectral spectral.Config
	// Workers bounds the expansion maintainer's fan-out over its sources
	// (the initial BFSs, and every Apply's repairs and rebuilds) and the
	// engine's own overlap of independent stages; <= 0 means GOMAXPROCS.
	// The results are the same at any worker count.
	Workers int
}

// EpochMeasurement is one epoch's structural snapshot: the three
// paper metrics plus the epoch they were taken at.
type EpochMeasurement struct {
	// Epoch is the fault-model epoch the measurement describes.
	Epoch int
	// Degeneracy is the maximum coreness on the epoch's topology
	// (§III-B).
	Degeneracy int
	// Expansion is the folded BFS envelope measurement (§III-D).
	Expansion *expansion.Result
	// SLEM is the mixing measurement on the largest component (§III-C).
	SLEM *spectral.Result
	// ComponentSize is the largest-component node count the SLEM ran on.
	ComponentSize int
}

// Engine measures the three structural metrics in lockstep with a
// fault model. Each epoch's topology is read once, as the CSR
// faults.Model.Degraded materializes into buffers the model reuses,
// and all three measurements run on it: the coreness is
// kcore.Decompose of it, the expansion maintainer repairs its BFS state
// from the epoch delta on it, and Measure takes the SLEM's largest
// component from it, warm-starting from the previous epoch's
// eigenvector.
//
// The stages that read the epoch's CSR but not each other's results
// overlap, as two items of one parallel.ForEach over the engine's
// workers: Advance decomposes the CSR while the maintainer repairs its
// BFS state, and Measure folds the envelope while the SLEM runs. The
// maintainer's and the SLEM's own fan-outs nest inside them. At one
// worker the items run inline, in the order listed.
//
// An interrupted sweep is not resumed: the job that ran it runs again
// from epoch 0. Not safe for concurrent use.
type Engine struct {
	model   *faults.Model
	workers int
	// g is the epoch's topology (model.Degraded) and cores its
	// decomposition.
	g     *graph.Graph
	cores *kcore.Decomposition
	exp   *ExpansionMaintainer
	slem  *SLEMMaintainer
	delta *faults.EpochDelta
}

// NewEngine measures the model's current epoch and returns an engine
// positioned at it.
func NewEngine(m *faults.Model, cfg EngineConfig) (*Engine, error) {
	if len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("incremental: engine needs expansion sources")
	}
	g := m.Degraded()
	dec, err := decompose(g)
	if err != nil {
		return nil, err
	}
	em, err := NewExpansionMaintainer(g, cfg.Sources, cfg.Workers)
	if err != nil {
		return nil, err
	}
	return &Engine{
		model:   m,
		workers: cfg.Workers,
		g:       g,
		cores:   dec,
		exp:     em,
		slem:    NewSLEMMaintainer(cfg.Spectral),
	}, nil
}

// Epoch returns the fault-model epoch the engine's state describes.
func (en *Engine) Epoch() int { return en.model.Epoch() }

// Cores returns every node's coreness at the current epoch, indexed by
// node ID, as a fresh copy.
func (en *Engine) Cores() []int { return en.cores.CorenessValues() }

// Advance moves the fault model one epoch, then decomposes the epoch's
// topology alongside the expansion maintainer's repair of its BFS state
// from the delta.
func (en *Engine) Advance() {
	obsEngineAdvances.Inc()
	en.delta = en.model.AdvanceEpochDelta(en.delta)
	en.g = en.model.Degraded()
	var dec *kcore.Decomposition
	err := parallel.ForEach(context.Background(), en.workers, 2, func(_, i int) (err error) {
		if i == 0 {
			dec, err = decompose(en.g)
		} else {
			en.exp.Apply(en.delta, en.g)
		}
		return err
	})
	if err != nil {
		// Unreachable: the constructor already decomposed a topology with
		// the same (nonzero) node count.
		panic(err)
	}
	en.cores = dec
}

// Measure snapshots the three structural metrics on the current epoch,
// folding the expansion envelope alongside the SLEM; it reports the
// expansion's error first. The coreness and expansion parts are
// bit-identical to from-scratch measurements; the SLEM is warm-started
// and matches a cold start only within the band the package comment
// describes.
func (en *Engine) Measure(ctx context.Context) (*EpochMeasurement, error) {
	var (
		exp      *expansion.Result
		slem     *spectral.Result
		compSize int
	)
	// The context goes to the stages, not to ForEach, so a cancelled
	// measurement fails with the stage's error, not a bare ctx.Err().
	err := parallel.ForEach(context.Background(), en.workers, 2, func(_, i int) (err error) {
		if i == 0 {
			if exp, err = en.exp.Measure(ctx); err != nil {
				return fmt.Errorf("incremental: expansion at epoch %d: %w", en.Epoch(), err)
			}
		} else if slem, compSize, err = en.slem.Measure(ctx, en.g); err != nil {
			return fmt.Errorf("incremental: slem at epoch %d: %w", en.Epoch(), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &EpochMeasurement{
		Epoch:         en.Epoch(),
		Degeneracy:    en.cores.Degeneracy(),
		Expansion:     exp,
		SLEM:          slem,
		ComponentSize: compSize,
	}, nil
}

// decompose runs the k-core decomposition of g.
func decompose(g graph.View) (*kcore.Decomposition, error) {
	dec, err := kcore.Decompose(g)
	if err != nil {
		return nil, fmt.Errorf("incremental: decompose: %w", err)
	}
	return dec, nil
}

// MeasureFull computes the same snapshot from scratch on a masked view
// — the non-incremental baseline the engine's results are validated
// (and benchmarked) against. It works on the view, not on the
// faults.Model.Degraded CSR the engine reads, so the two share no
// materialized topology.
func MeasureFull(ctx context.Context, view *graph.MaskedView, cfg EngineConfig) (*EpochMeasurement, error) {
	dec, err := decompose(view)
	if err != nil {
		return nil, err
	}
	exp, err := expansion.Measure(ctx, view, expansion.Config{
		Sources: cfg.Sources,
		Workers: cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("incremental: full expansion: %w", err)
	}
	comp, nodes := graph.LargestComponent(view)
	scfg := cfg.Spectral
	scfg.Warm, scfg.KeepVector = nil, false
	slem, err := spectral.SLEMContext(ctx, comp, scfg)
	if err != nil {
		return nil, fmt.Errorf("incremental: full slem: %w", err)
	}
	return &EpochMeasurement{
		Degeneracy:    dec.Degeneracy(),
		Expansion:     exp,
		SLEM:          slem,
		ComponentSize: len(nodes),
	}, nil
}
