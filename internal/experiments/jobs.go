package experiments

import (
	"context"
	"fmt"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/report"
	"github.com/trustnet/trustnet/internal/resilience"
)

// JobConfig is the typed configuration every experiment registers into
// the job registry with; jobs.ConfigFingerprint over this struct is the
// config half of the artifact cache key. Worker count is deliberately
// absent: the determinism contract makes results identical at any
// worker count.
type JobConfig struct {
	// Job is the registry name, so two experiments with otherwise equal
	// knobs never share a fingerprint.
	Job string `json:"job"`
	// Quick and Seed select the sampling regime and random streams.
	Quick bool  `json:"quick"`
	Seed  int64 `json:"seed"`
	// Incremental routes the epoch sweep through the incremental
	// engine; only the epochs job sets it (SLEM differs between the
	// two paths, by up to 1e-4 — see Options.Incremental — so they must
	// not share a cache slot).
	Incremental bool `json:"incremental,omitempty"`
}

// SubstrateFingerprint digests the graph substrate a run measures: the
// canonical graph.Fingerprint of every registry dataset the
// configuration touches (the small band in quick mode, the full
// registry otherwise), combined per dataset name. Graphs are generated
// through the shared Options.Cache, so the jobs that follow reuse them
// instead of regenerating. The result is the graph half of every
// artifact cache key — a changed generator or dataset registry
// invalidates cached results instead of replaying them over the wrong
// data.
func SubstrateFingerprint(opts Options) (string, error) {
	opts.fill()
	specs := datasets.All()
	if opts.Quick {
		specs = datasets.ByBand(datasets.Small)
	}
	parts := make([]any, 0, 2*len(specs))
	for _, spec := range specs {
		g, err := opts.graphFor(spec.Name)
		if err != nil {
			return "", fmt.Errorf("experiments: substrate fingerprint: %w", err)
		}
		parts = append(parts, spec.Name, graph.Fingerprint(g))
	}
	return resilience.Fingerprint(parts...), nil
}

// Jobs builds the full measurement battery as a jobs.Registry: one
// registered job per table, figure, and derived experiment, each with a
// typed JobConfig fingerprint. The returned jobs capture opts (sharing
// its dataset cache). A job either returns its complete artifact or
// fails with nothing to emit: the jobs.Runner's artifact cache is the
// only record of finished work, and a job cut by a deadline runs again
// from its start.
func Jobs(opts Options) (*jobs.Registry, error) {
	opts.fill()
	reg := jobs.NewRegistry()
	type adapter struct {
		name string
		run  func(ctx context.Context, opts Options, b *jobs.Builder) error
	}
	adapters := []adapter{
		{"tableI", tableIJob},
		{"figure1", figure1Job},
		{"figure2", figure2Job},
		{"tableII", tableIIJob},
		{"figure3", figure3Job},
		{"figure4", figure4Job},
		{"figure5", figure5Job},
		{"cross", crossJob},
		{"dynamic", dynamicJob},
		{"modulated", modulatedJob},
		{"attacker", attackerJob},
		{"betweenness", betweennessJob},
		{"sweep", sweepJob},
		{"churn", churnJob},
		{"epochs", epochsJob},
	}
	for _, a := range adapters {
		a := a
		cfg := JobConfig{Job: a.name, Quick: opts.Quick, Seed: opts.Seed}
		if a.name == "epochs" {
			cfg.Incremental = opts.Incremental
		}
		j := jobs.New(a.name, cfg, func(ctx context.Context, _ jobs.Env) (*jobs.Artifact, error) {
			b := jobs.NewBuilder()
			if err := a.run(ctx, opts, b); err != nil {
				return nil, err
			}
			return b.Artifact(), nil
		})
		if err := reg.Register(j); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// tableIJob renders and files the Table I reproduction.
func tableIJob(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := TableI(ctx, opts)
	if err != nil {
		return err
	}
	t, err := res.Table()
	if err != nil {
		return err
	}
	if err := b.Table(t); err != nil {
		return err
	}
	return b.SaveTable("tableI.txt", t)
}

// figure1Job files both mixing-curve panels and the per-source ECDFs,
// and renders the mixing-time summary.
func figure1Job(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := Figure1(ctx, opts)
	if err != nil {
		return err
	}
	if err := b.SaveCSV("figure1a.csv", res.PanelA); err != nil {
		return err
	}
	if err := b.SaveCSV("figure1b.csv", res.PanelB); err != nil {
		return err
	}
	if err := b.SaveCSV("figure1-sources.csv", res.SourceECDFs); err != nil {
		return err
	}
	t := report.NewTable("Figure 1: mixing time T(0.1) per dataset (0 = not within budget)", "Dataset", "T(0.1)")
	for _, s := range append(res.PanelA, res.PanelB...) {
		if err := t.AddRow(s.Name, report.Int(res.MixingTimes[s.Name])); err != nil {
			return err
		}
	}
	return b.Table(t)
}

// figure2Job files both coreness panels and renders the degeneracy
// summary.
func figure2Job(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := Figure2(ctx, opts)
	if err != nil {
		return err
	}
	if err := b.SaveCSV("figure2a.csv", res.PanelA); err != nil {
		return err
	}
	if err := b.SaveCSV("figure2b.csv", res.PanelB); err != nil {
		return err
	}
	t := report.NewTable("Figure 2: degeneracy per dataset", "Dataset", "Degeneracy")
	for _, s := range append(res.PanelA, res.PanelB...) {
		if err := t.AddRow(s.Name, report.Int(res.Degeneracy[s.Name])); err != nil {
			return err
		}
	}
	return b.Table(t)
}

// tableIIJob renders and files the Table II reproduction.
func tableIIJob(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := TableII(ctx, opts)
	if err != nil {
		return err
	}
	t, err := res.Table()
	if err != nil {
		return err
	}
	if err := b.Table(t); err != nil {
		return err
	}
	return b.SaveTable("tableII.txt", t)
}

// figure3Job files one CSV per expansion panel.
func figure3Job(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := Figure3(ctx, opts)
	if err != nil {
		return err
	}
	for _, p := range res.Panels {
		path := fmt.Sprintf("figure3-%s.csv", p.Name)
		if err := b.SaveCSV(path, []report.Series{p.Min, p.Mean, p.Max}); err != nil {
			return err
		}
	}
	b.Printf("wrote %d figure 3 panels\n", len(res.Panels))
	return nil
}

// figure4Job files both expansion panels and renders the mean-alpha
// summary.
func figure4Job(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := Figure4(ctx, opts)
	if err != nil {
		return err
	}
	if err := b.SaveCSV("figure4a.csv", res.PanelA); err != nil {
		return err
	}
	if err := b.SaveCSV("figure4b.csv", res.PanelB); err != nil {
		return err
	}
	t := report.NewTable("Figure 4: mean expansion factor over small sets", "Dataset", "mean alpha")
	for _, s := range append(res.PanelA, res.PanelB...) {
		if err := t.AddRow(s.Name, report.Float(res.MeanAlphaSmall[s.Name], 3)); err != nil {
			return err
		}
	}
	return b.Table(t)
}

// figure5Job files one CSV per core-structure panel and renders the
// degeneracy/top-core summary.
func figure5Job(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := Figure5(ctx, opts)
	if err != nil {
		return err
	}
	t := report.NewTable("Figure 5: core structure", "Dataset", "Degeneracy", "Top cores")
	for _, p := range res.Panels {
		path := fmt.Sprintf("figure5-%s.csv", p.Name)
		if err := b.SaveCSV(path, []report.Series{p.RelativeSize, p.LargestRelativeSize, p.NumCores}); err != nil {
			return err
		}
		if err := t.AddRow(p.Name, report.Int(p.Degeneracy), report.Int(p.TopComponents)); err != nil {
			return err
		}
	}
	return b.Table(t)
}

// crossJob renders and files the cross-property summary and
// correlation tables.
func crossJob(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := CrossProperty(ctx, opts)
	if err != nil {
		return err
	}
	sum, err := res.SummaryTable()
	if err != nil {
		return err
	}
	corr, err := res.CorrelationTable()
	if err != nil {
		return err
	}
	if err := b.Table(sum); err != nil {
		return err
	}
	b.Printf("\n")
	if err := b.Table(corr); err != nil {
		return err
	}
	if err := b.SaveTable("cross-summary.txt", sum); err != nil {
		return err
	}
	return b.SaveTable("cross-correlations.txt", corr)
}

// dynamicJob renders and files the growth-dynamics experiment.
func dynamicJob(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := FutureWorkDynamic(ctx, opts)
	if err != nil {
		return err
	}
	t, err := res.Table()
	if err != nil {
		return err
	}
	if err := b.Table(t); err != nil {
		return err
	}
	if err := b.SaveTable("dynamic.txt", t); err != nil {
		return err
	}
	return b.SaveCSV("dynamic.csv",
		[]report.Series{res.SLEM, res.Mixing, res.MinAlpha, res.AvgDegree})
}

// modulatedJob renders and files the interaction-modulated experiment.
func modulatedJob(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := FutureWorkModulated(ctx, opts)
	if err != nil {
		return err
	}
	t, err := res.Table()
	if err != nil {
		return err
	}
	if err := b.Table(t); err != nil {
		return err
	}
	if err := b.SaveTable("modulated.txt", t); err != nil {
		return err
	}
	return b.SaveCSV("modulated.csv", res.Curves)
}

// attackerJob renders and files the attacker-model comparison.
func attackerJob(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := AttackerModels(ctx, opts)
	if err != nil {
		return err
	}
	t, err := res.Table()
	if err != nil {
		return err
	}
	if err := b.Table(t); err != nil {
		return err
	}
	return b.SaveTable("attacker.txt", t)
}

// betweennessJob renders and files the betweenness distribution.
func betweennessJob(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := BetweennessDistribution(ctx, opts)
	if err != nil {
		return err
	}
	t, err := res.Table()
	if err != nil {
		return err
	}
	if err := b.Table(t); err != nil {
		return err
	}
	if err := b.SaveTable("betweenness.txt", t); err != nil {
		return err
	}
	return b.SaveCSV("betweenness.csv", res.ECDFs)
}

// sweepJob renders and files the bridge-budget sweep.
func sweepJob(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := BridgeSweep(ctx, opts)
	if err != nil {
		return err
	}
	t, err := res.Table()
	if err != nil {
		return err
	}
	if err := b.Table(t); err != nil {
		return err
	}
	return b.SaveTable("sweep.txt", t)
}

// churnJob renders and files the churn graceful-degradation
// experiment.
func churnJob(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := Churn(ctx, opts)
	if err != nil {
		return err
	}
	t, err := res.Table()
	if err != nil {
		return err
	}
	if err := b.Table(t); err != nil {
		return err
	}
	if err := b.SaveTable("churn.txt", t); err != nil {
		return err
	}
	return b.SaveCSV("churn.csv", res.Series())
}

// epochsJob renders and files the epoch sweep.
func epochsJob(ctx context.Context, opts Options, b *jobs.Builder) error {
	res, err := EpochSweep(ctx, opts)
	if err != nil {
		return err
	}
	t, err := res.Table()
	if err != nil {
		return err
	}
	if err := b.Table(t); err != nil {
		return err
	}
	return b.SaveTable("epochs.txt", t)
}
