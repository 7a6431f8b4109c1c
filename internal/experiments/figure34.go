package experiments

import (
	"context"
	"fmt"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/report"
)

// Figure3Panel is one dataset's expansion scatter (Figure 3 draws one
// panel per dataset): the min/mean/max number of neighbors for each
// observed envelope size.
type Figure3Panel struct {
	Name string
	Min  report.Series
	Mean report.Series
	Max  report.Series
}

// Figure3Result reproduces Figure 3 across all datasets.
type Figure3Result struct {
	Panels []Figure3Panel
	// Partial reports that a best-effort run was cut short: the last
	// panel covers only part of its cores, or the cut dataset salvaged
	// nothing and is missing, and later datasets were not measured.
	Partial bool
}

// Figure4Result reproduces Figure 4: the expected expansion factor α as a
// function of set size, one series per dataset, in the paper's two
// panel grouping ((a) small+slow and (b) medium OSNs).
type Figure4Result struct {
	PanelA []report.Series
	PanelB []report.Series
	// MeanAlphaSmall records each dataset's mean α over sets of at most
	// n/10 nodes, for the shape checks.
	MeanAlphaSmall map[string]float64
	// Partial reports that a best-effort run was cut short, as for
	// Figure3Result.
	Partial bool
}

// measureExpansion runs the envelope measurement for one dataset with
// option-scaled sampling.
func measureExpansion(ctx context.Context, opts Options, g *graph.Graph) (*expansion.Result, error) {
	cfg := expansion.Config{Workers: opts.Workers, BestEffort: opts.BestEffort}
	if opts.Quick {
		srcs, err := expansion.SampledSources(g, 60, opts.Seed)
		if err != nil {
			return nil, err
		}
		cfg.Sources = srcs
	}
	return expansion.Measure(ctx, g, cfg)
}

// Figure3 measures the per-envelope-size neighbor statistics of every
// dataset (all nodes as cores, per the paper's O(nm) measurement; Quick
// mode samples cores instead). With Options.BestEffort a deadline stops
// the run at the cut dataset with a partial result.
func Figure3(ctx context.Context, opts Options) (*Figure3Result, error) {
	opts.fill()
	specs := datasets.All()
	if opts.Quick {
		specs = datasets.ByBand(datasets.Small)
	}
	res := &Figure3Result{}
	for _, spec := range specs {
		g, err := opts.graphFor(spec.Name)
		if err != nil {
			return nil, err
		}
		er, err := measureExpansion(ctx, opts, g)
		if opts.cutBeforeSalvage(err, len(res.Panels)) {
			res.Partial = true
			break
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: figure 3 expansion of %s: %w", spec.Name, err)
		}
		panel := Figure3Panel{
			Name: spec.Name,
			Min:  report.Series{Name: spec.Name + "/min"},
			Mean: report.Series{Name: spec.Name + "/mean"},
			Max:  report.Series{Name: spec.Name + "/max"},
		}
		for _, size := range er.NeighborsBySetSize.Keys() {
			s, ok := er.NeighborsBySetSize.Get(size)
			if !ok {
				continue
			}
			x := float64(size)
			panel.Min.X = append(panel.Min.X, x)
			panel.Min.Y = append(panel.Min.Y, s.Min())
			panel.Mean.X = append(panel.Mean.X, x)
			panel.Mean.Y = append(panel.Mean.Y, s.Mean())
			panel.Max.X = append(panel.Max.X, x)
			panel.Max.Y = append(panel.Max.Y, s.Max())
		}
		res.Panels = append(res.Panels, panel)
		if er.Partial {
			res.Partial = true
			break
		}
	}
	return res, nil
}

// figure4PanelA and figure4PanelB mirror the paper's grouping: panel (a)
// plots the Physics graphs with Facebook and LiveJournal, panel (b) the
// small/medium OSNs.
var (
	figure4PanelA = []string{"physics-1", "physics-2", "physics-3", "facebook-b", "livejournal-a"}
	figure4PanelB = []string{"wiki-vote", "epinion", "enron", "slashdot-a"}
)

// Figure4 computes the expected expansion factor curves. With
// Options.BestEffort a deadline stops the run at the cut dataset with a
// partial result.
func Figure4(ctx context.Context, opts Options) (*Figure4Result, error) {
	opts.fill()
	res := &Figure4Result{MeanAlphaSmall: make(map[string]float64)}
	run := func(names []string, panel *[]report.Series) error {
		for _, name := range names {
			if res.Partial {
				return nil // the deadline already hit; later datasets stay unmeasured
			}
			g, err := opts.graphFor(name)
			if err != nil {
				return err
			}
			er, err := measureExpansion(ctx, opts, g)
			if opts.cutBeforeSalvage(err, len(res.PanelA)+len(res.PanelB)) {
				res.Partial = true
				return nil
			}
			if err != nil {
				return fmt.Errorf("experiments: figure 4 expansion of %s: %w", name, err)
			}
			s := report.Series{Name: name}
			var alphaSum float64
			var alphaCnt int
			smallCap := int64(g.NumNodes()) / 10
			for _, size := range er.FactorBySetSize.Keys() {
				sum, ok := er.FactorBySetSize.Get(size)
				if !ok {
					continue
				}
				s.X = append(s.X, float64(size))
				s.Y = append(s.Y, sum.Mean())
				if size <= smallCap {
					alphaSum += sum.Mean()
					alphaCnt++
				}
			}
			*panel = append(*panel, s)
			if alphaCnt > 0 {
				res.MeanAlphaSmall[name] = alphaSum / float64(alphaCnt)
			}
			if er.Partial {
				res.Partial = true
			}
		}
		return nil
	}
	a, b := figure4PanelA, figure4PanelB
	if opts.Quick {
		a, b = a[:2], b[:2]
	}
	if err := run(a, &res.PanelA); err != nil {
		return nil, err
	}
	if err := run(b, &res.PanelB); err != nil {
		return nil, err
	}
	return res, nil
}
