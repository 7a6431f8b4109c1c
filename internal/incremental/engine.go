package incremental

import (
	"context"
	"fmt"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/kcore"
	"github.com/trustnet/trustnet/internal/obs"
	"github.com/trustnet/trustnet/internal/spectral"
)

// Observability instruments for the epoch engine.
var (
	obsEngineAdvances = obs.Default().Counter("incremental.engine.advances")
	obsEngineCoreInc  = obs.Default().Counter("incremental.engine.core_incremental")
)

// EngineConfig configures an epoch measurement engine.
type EngineConfig struct {
	// Sources are the BFS sources for the expansion envelope. Required.
	Sources []graph.NodeID
	// Spectral configures the SLEM's Lanczos iteration (Warm and
	// KeepVector are managed by the engine).
	Spectral spectral.Config
	// Workers bounds per-measurement parallelism for the expansion fold.
	Workers int
}

// EpochMeasurement is one epoch's structural snapshot: the three
// paper metrics plus the epoch they were taken at.
type EpochMeasurement struct {
	// Epoch is the fault-model epoch the measurement describes.
	Epoch int
	// Degeneracy is the maximum coreness on the current view (§III-B).
	Degeneracy int
	// CoreIncremental reports whether the epoch's coreness repair ran
	// incrementally (false on epoch 0 and on budget fallbacks).
	CoreIncremental bool
	// Expansion is the folded BFS envelope measurement (§III-D).
	Expansion *expansion.Result
	// SLEM is the mixing measurement on the largest component (§III-C).
	SLEM *spectral.Result
	// ComponentSize is the largest-component node count the SLEM ran on.
	ComponentSize int
}

// Engine drives the three incremental maintainers in lockstep with a
// fault model: each Advance moves the model one epoch and repairs the
// maintained coreness and BFS state from the epoch delta; Measure
// snapshots all three metrics on the current view, warm-starting the
// SLEM from the previous epoch's eigenvector.
//
// An interrupted sweep resumes by rebuilding: faults.Model.SetEpoch
// replays the schedule to any epoch deterministically, and a fresh
// Engine constructed there produces measurements equivalent to the
// uninterrupted run — bit-identical cores and expansion (both are
// exact at every epoch regardless of the repair path taken), and SLEM
// within the band the package comment describes (the warm-start
// history differs). Not safe for concurrent use.
type Engine struct {
	model *faults.Model
	cores *CoreMaintainer
	exp   *ExpansionMaintainer
	slem  *SLEMMaintainer
	cfg   EngineConfig
	delta *faults.EpochDelta
}

// NewEngine builds the three maintainers against the model's current
// view and epoch.
func NewEngine(m *faults.Model, cfg EngineConfig) (*Engine, error) {
	if len(cfg.Sources) == 0 {
		return nil, fmt.Errorf("incremental: engine needs expansion sources")
	}
	cm, err := NewCoreMaintainer(m.View())
	if err != nil {
		return nil, err
	}
	em, err := NewExpansionMaintainer(m.View(), cfg.Sources)
	if err != nil {
		return nil, err
	}
	return &Engine{
		model: m,
		cores: cm,
		exp:   em,
		slem:  NewSLEMMaintainer(m.View(), cfg.Spectral),
		cfg:   cfg,
	}, nil
}

// Epoch returns the fault-model epoch the maintained state describes.
func (en *Engine) Epoch() int { return en.model.Epoch() }

// Cores exposes the maintained coreness array (owned by the engine,
// valid until the next Advance).
func (en *Engine) Cores() []int { return en.cores.Cores() }

// Advance moves the fault model one epoch and repairs all maintained
// state from the delta. It reports whether the coreness repair ran
// incrementally.
func (en *Engine) Advance() bool {
	obsEngineAdvances.Inc()
	en.delta = en.model.AdvanceEpochDelta(en.delta)
	inc := en.cores.Apply(en.delta)
	if inc {
		obsEngineCoreInc.Inc()
	}
	en.exp.Apply(en.delta)
	return inc
}

// Measure snapshots the three structural metrics on the current view.
// The coreness and expansion parts are bit-identical to from-scratch
// measurements; the SLEM is warm-started and matches a cold start only
// within the band the package comment describes.
func (en *Engine) Measure(ctx context.Context) (*EpochMeasurement, error) {
	exp, err := en.exp.Measure(ctx, en.cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("incremental: expansion at epoch %d: %w", en.Epoch(), err)
	}
	slem, compSize, err := en.slem.Measure(ctx)
	if err != nil {
		return nil, fmt.Errorf("incremental: slem at epoch %d: %w", en.Epoch(), err)
	}
	return &EpochMeasurement{
		Epoch:         en.Epoch(),
		Degeneracy:    en.cores.Degeneracy(),
		Expansion:     exp,
		SLEM:          slem,
		ComponentSize: compSize,
	}, nil
}

// kcoreDecompose runs the full decomposition and returns its
// degeneracy — the baseline for the maintained coreness.
func kcoreDecompose(view *graph.MaskedView) (int, error) {
	dec, err := kcore.Decompose(view)
	if err != nil {
		return 0, fmt.Errorf("incremental: full decompose: %w", err)
	}
	return dec.Degeneracy(), nil
}

// MeasureFull computes the same snapshot from scratch on an arbitrary
// view — the non-incremental baseline the engine's results are
// validated (and benchmarked) against.
func MeasureFull(ctx context.Context, view *graph.MaskedView, cfg EngineConfig) (*EpochMeasurement, error) {
	dec, err := kcoreDecompose(view)
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
	comp, nodes := graph.LargestComponentView(view)
	scfg := cfg.Spectral
	scfg.Warm, scfg.KeepVector = nil, false
	slem, err := spectral.SLEMContext(ctx, comp, scfg)
	if err != nil {
		return nil, fmt.Errorf("incremental: full slem: %w", err)
	}
	return &EpochMeasurement{
		Degeneracy:    dec,
		Expansion:     exp,
		SLEM:          slem,
		ComponentSize: len(nodes),
	}, nil
}
