package experiments

import (
	"context"
	"fmt"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/report"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/walk"
)

// SweepPoint is one bridge-budget setting of the ablation sweep.
type SweepPoint struct {
	Bridges int
	SLEM    float64
	// MixingTime is the mean-curve T(0.1) (0 when not reached within
	// budget): the worst sampled source in a community graph can exceed
	// any practical budget, so the sweep tracks the average-source view
	// of Figure 1 instead.
	MixingTime int
	Mixed      bool
	MinAlpha   float64
}

// SweepResult is the design-choice ablation behind the dataset registry:
// the clustered generator's bridge budget is the knob that moves a graph
// continuously from the paper's slow-mixing regime to its fast-mixing
// one, with SLEM, sampled mixing time, and expansion all responding
// together. It validates that the synthetic families span the spectrum
// the paper's real datasets occupy.
type SweepResult struct {
	Points []SweepPoint
}

// Table renders the sweep.
func (r *SweepResult) Table() (*report.Table, error) {
	t := report.NewTable(
		"Ablation: community bridge budget vs measured properties (8 communities x 80 nodes)",
		"Bridges/pair", "mu", "mean T(0.1)", "min alpha",
	)
	for _, p := range r.Points {
		mix := "> budget"
		if p.Mixed {
			mix = report.Int(p.MixingTime)
		}
		if err := t.AddRow(report.Int(p.Bridges), report.Float(p.SLEM, 4),
			mix, report.Float(p.MinAlpha, 4)); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// BridgeSweep measures the property spectrum across bridge budgets.
func BridgeSweep(ctx context.Context, opts Options) (*SweepResult, error) {
	opts.fill()
	budgets := []int{1, 2, 4, 8, 16}
	if opts.Quick {
		budgets = []int{1, 4, 16}
	}
	res := &SweepResult{}
	for _, bridges := range budgets {
		g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
			Communities:   8,
			CommunitySize: 80,
			Attach:        4,
			Bridges:       bridges,
			Periphery:     2 * 16, // fixed so only the bridge count varies
			Seed:          opts.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep bridges=%d: %w", bridges, err)
		}
		pt := SweepPoint{Bridges: bridges}

		sr, err := spectral.SLEMContext(ctx, g, spectral.Config{Tolerance: 1e-6, Seed: opts.Seed, Workers: opts.Workers})
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep slem bridges=%d: %w", bridges, err)
		}
		pt.SLEM = sr.SLEM

		mr, err := walk.MeasureMixing(ctx, g, walk.MixingConfig{
			MaxSteps: opts.pick(100, 250),
			Sources:  opts.pick(10, 30),
			Seed:     opts.Seed,
			Workers:  opts.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep mixing bridges=%d: %w", bridges, err)
		}
		pt.MixingTime, pt.Mixed = mr.MeanMixingTime(0.1)

		srcs, err := expansion.SampledSources(g, opts.pick(60, 200), opts.Seed)
		if err != nil {
			return nil, err
		}
		er, err := expansion.Measure(ctx, g, expansion.Config{Sources: srcs, Workers: opts.Workers})
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep expansion bridges=%d: %w", bridges, err)
		}
		if a, ok := er.VertexExpansion(g.NumNodes()); ok {
			pt.MinAlpha = a
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}
