package experiments

import (
	"context"
	"fmt"
	"math"

	"github.com/trustnet/trustnet/internal/core"
	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/report"
)

// CrossPropertyResult is the §V analysis: full per-dataset measurement
// reports plus the correlations between mixing, core structure, and
// expansion across datasets.
type CrossPropertyResult struct {
	Reports  []*core.Report
	Analysis *core.CrossAnalysis
}

// SummaryTable renders one row per dataset with the headline numbers.
func (r *CrossPropertyResult) SummaryTable() (*report.Table, error) {
	t := report.NewTable(
		"Cross-property summary (§IV/§V)",
		"Dataset", "Nodes", "Edges", "mu", "T(eps)", "Degeneracy", "TopCoreNu", "TopCores", "MinAlpha", "MeanAlpha",
	)
	for _, rep := range r.Reports {
		mix := "> budget"
		if rep.MixedWithinBudget {
			mix = report.Int(rep.MixingTime)
		}
		if err := t.AddRow(
			rep.Name, report.Int(rep.Nodes), report.Int64(rep.Edges),
			report.Float(rep.SLEM, 5), mix,
			report.Int(rep.Cores.Degeneracy),
			report.Float(rep.Cores.TopCoreNu, 3),
			report.Int(rep.Cores.TopCoreComponents),
			report.Float(rep.Expansion.MinAlpha, 4),
			report.Float(rep.Expansion.MeanAlphaSmallSets, 3),
		); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// CorrelationTable renders the Spearman correlations backing the paper's
// §V claims.
func (r *CrossPropertyResult) CorrelationTable() (*report.Table, error) {
	t := report.NewTable(
		"Spearman correlations across datasets",
		"Pair", "rho", "Paper's claim",
	)
	rows := []struct {
		pair, claim string
		rho         float64
	}{
		{"mixing slowness vs top-core relative size", "negative (fast mixers have one big core)", r.Analysis.MixingVsTopCoreNu},
		{"mixing slowness vs number of top cores", "positive (slow mixers split into cores)", r.Analysis.MixingVsCoreComponents},
		{"mixing slowness vs mean expansion factor", "negative (expansion is analogous to mixing)", r.Analysis.MixingVsExpansion},
		{"SLEM vs mixing slowness", "positive (the two measurements agree)", r.Analysis.SLEMVsMixing},
	}
	for _, row := range rows {
		if err := t.AddRow(row.pair, report.Float(row.rho, 3), row.claim); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// crossPropertyDatasets is the subset measured by the cross-property
// analysis: a balanced mix of fast and slow graphs from every band.
var crossPropertyDatasets = []string{
	"wiki-vote", "epinion", "rice-grad", "slashdot-a", "enron",
	"physics-1", "physics-2", "physics-3", "dblp", "facebook-b", "youtube",
}

// CrossProperty measures the suite over a balanced dataset subset and
// computes the §V correlations.
func CrossProperty(ctx context.Context, opts Options) (*CrossPropertyResult, error) {
	opts.fill()
	names := crossPropertyDatasets
	if opts.Quick {
		names = []string{"wiki-vote", "rice-grad", "physics-1", "physics-2"}
	}
	res := &CrossPropertyResult{}
	for _, name := range names {
		g, err := opts.graphFor(name)
		if err != nil {
			return nil, err
		}
		// The SLEM tolerance, ε = 1/n floored at 1e-4, and every node as
		// a BFS core in full mode are this table's protocol, not the
		// catalog defaults.
		n := g.NumNodes()
		cfg := core.MeasureConfig{
			Seed:             opts.Seed,
			Workers:          opts.Workers,
			Sources:          opts.pick(10, 50),
			MaxSteps:         opts.pick(60, 200),
			ExpansionSources: opts.pick(60, n),
			Tolerance:        1e-7,
			Epsilon:          math.Max(1/float64(n), 1e-4),
		}
		rep, err := core.Measure(ctx, name, g, cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: cross-property measure %s: %w", name, err)
		}
		res.Reports = append(res.Reports, rep)
	}
	an, err := core.Analyze(res.Reports)
	if err != nil {
		return nil, fmt.Errorf("experiments: cross-property analyze: %w", err)
	}
	res.Analysis = an
	return res, nil
}

// classOf returns the registry class for a dataset name (helper for shape
// checks in tests and EXPERIMENTS.md generation).
func classOf(name string) (datasets.Class, error) {
	spec, err := datasets.ByName(name)
	if err != nil {
		return 0, err
	}
	return spec.Class, nil
}
