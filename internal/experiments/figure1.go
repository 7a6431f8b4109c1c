package experiments

import (
	"context"
	"fmt"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/report"
	"github.com/trustnet/trustnet/internal/stats"
	"github.com/trustnet/trustnet/internal/walk"
)

// Figure1Result reproduces Figure 1: total variation distance to
// stationarity versus walk length, measured with the sampling method from
// random sources, split into the paper's two panels.
type Figure1Result struct {
	// PanelA holds the small/medium datasets, PanelB the large ones. One
	// series per dataset: x = walk length, y = mean TVD over sources.
	PanelA []report.Series
	PanelB []report.Series
	// MixingTimes records T(ε=0.1) per dataset for the shape checks
	// (0 when not reached within the step budget).
	MixingTimes map[string]int
	// SourceECDFs holds, per dataset, the ECDF of per-source mixing
	// times at ε=0.1 — the "variety of mixing patterns in the same
	// social graph" view the paper's sampling method exists to expose
	// (sources that never mix within budget are recorded at budget+1).
	SourceECDFs []report.Series
}

// Figure1 measures the mixing curves of every dataset. ctx cancels the
// underlying mixing measurements between walk steps; a canceled or
// deadline-hit run returns the context error and no result.
func Figure1(ctx context.Context, opts Options) (*Figure1Result, error) {
	opts.fill()
	res := &Figure1Result{MixingTimes: make(map[string]int)}
	run := func(specs []datasets.Spec, panel *[]report.Series) error {
		for _, spec := range specs {
			g, err := opts.graphFor(spec.Name)
			if err != nil {
				return err
			}
			cfg := walk.MixingConfig{
				MaxSteps: opts.pick(60, 200),
				Sources:  opts.pick(10, 50),
				Seed:     opts.Seed,
				Workers:  opts.Workers,
			}
			mr, err := walk.MeasureMixing(ctx, g, cfg)
			if err != nil {
				return fmt.Errorf("experiments: figure 1 mixing of %s: %w", spec.Name, err)
			}
			s := report.Series{Name: spec.Name}
			for t, tvd := range mr.MeanTVD {
				s.X = append(s.X, float64(t+1))
				s.Y = append(s.Y, tvd)
			}
			*panel = append(*panel, s)
			if tm, ok := mr.MixingTime(0.1); ok {
				res.MixingTimes[spec.Name] = tm
			} else {
				res.MixingTimes[spec.Name] = 0
			}
			times := mr.SourceMixingTimes(0.1)
			samples := make([]float64, len(times))
			for i, tm := range times {
				if tm == 0 {
					tm = len(mr.MeanTVD) + 1 // censored at budget+1
				}
				samples[i] = float64(tm)
			}
			ecdf, err := stats.NewECDF(samples)
			if err != nil {
				return fmt.Errorf("experiments: figure 1 source ecdf of %s: %w", spec.Name, err)
			}
			xs, fs := ecdf.Points()
			res.SourceECDFs = append(res.SourceECDFs, report.Series{Name: spec.Name, X: xs, Y: fs})
		}
		return nil
	}
	smallMedium := append(datasets.ByBand(datasets.Small), datasets.ByBand(datasets.Medium)...)
	if err := run(smallMedium, &res.PanelA); err != nil {
		return nil, err
	}
	large := datasets.ByBand(datasets.Large)
	if opts.Quick {
		large = large[:2]
	}
	if err := run(large, &res.PanelB); err != nil {
		return nil, err
	}
	return res, nil
}
