// Package core is the paper's primary contribution as a library: a
// measurement suite that, given any social graph, quantifies the three
// algorithmic properties Sybil defenses rely on — mixing time (sampling
// method and spectral bound, §III-C), graph expansion (§III-D), and core
// structure (§III-B) — and the cross-property analysis of §IV/§V relating
// them (fast mixing ⇔ one large core; expansion ⇔ mixing).
package core

import (
	"context"
	"fmt"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/kcore"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/stats"
	"github.com/trustnet/trustnet/internal/walk"
)

// Config tunes the suite. The zero value selects scaled-down defaults
// suitable for the synthetic datasets.
type Config struct {
	// MixingSources is the number of sampled walk sources (paper: 1000).
	// Defaults to 50.
	MixingSources int
	// MixingMaxSteps bounds the measured walk length. Defaults to 200.
	MixingMaxSteps int
	// Epsilon is the variation-distance target for T(ε). Defaults to
	// Θ(1/n) — the fast-mixing criterion of §III-C — floored at 1e-4.
	Epsilon float64
	// ExpansionSources limits the expansion measurement to a sample of
	// cores; 0 measures from every node as the paper does.
	ExpansionSources int
	// SpectralTolerance is the SLEM's Lanczos stopping tolerance: the
	// iteration stops once μ moves by less than it in a step. Defaults
	// to 1e-7 (community graphs have clustered spectra).
	SpectralTolerance float64
	// Seed makes the whole suite deterministic.
	Seed int64
	// Workers bounds parallelism in the mixing and expansion
	// measurements; <= 0 uses GOMAXPROCS.
	Workers int
}

func (c *Config) fill(n int) {
	if c.MixingSources == 0 {
		c.MixingSources = 50
	}
	if c.MixingMaxSteps == 0 {
		c.MixingMaxSteps = 200
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1 / float64(n)
		if c.Epsilon < 1e-4 {
			c.Epsilon = 1e-4
		}
	}
	if c.SpectralTolerance == 0 {
		c.SpectralTolerance = 1e-7
	}
}

// CoreSummary condenses the k-core decomposition for the cross-property
// analysis.
type CoreSummary struct {
	// Degeneracy is the largest k with a non-empty core.
	Degeneracy int
	// TopCoreNuTilde is ν̃_k at k = degeneracy (relative size of the
	// degree-condition core).
	TopCoreNuTilde float64
	// TopCoreNu is ν_k at k = degeneracy (relative size of the largest
	// connected core).
	TopCoreNu float64
	// TopCoreComponents is the number of connected cores at k =
	// degeneracy — 1 for the paper's fast mixers, several for the slow
	// ones.
	TopCoreComponents int
	// MeanCoreness is the average node coreness.
	MeanCoreness float64
	// Levels is the full per-k series behind Figure 5.
	Levels []kcore.LevelStats
	// CorenessECDF holds the Figure 2 distribution.
	CorenessECDF *stats.ECDF
}

// ExpansionSummary condenses the envelope measurement.
type ExpansionSummary struct {
	// MinAlpha is the smallest observed expansion factor over envelopes
	// of at most n/2 nodes — the sampled vertex-expansion analogue.
	MinAlpha float64
	// MeanAlphaSmallSets averages α over envelopes of at most n/10 nodes,
	// the regime GateKeeper's ticket distribution operates in.
	MeanAlphaSmallSets float64
	// Result keeps the full per-set-size aggregation (Figures 3 and 4).
	Result *expansion.Result
}

// Report is the complete measurement of one graph.
type Report struct {
	Name  string
	Nodes int
	Edges int64

	// SLEM is μ; Bounds are the Sinclair bounds at Epsilon.
	SLEM   float64
	Bounds spectral.Bounds

	// Mixing holds the sampling-method curves; MixingTime is T(ε) for
	// the worst sampled source (0 if not reached within MixingMaxSteps,
	// see MixedWithinBudget).
	Mixing            *walk.MixingResult
	MixingTime        int
	MixedWithinBudget bool
	Epsilon           float64

	Cores     CoreSummary
	Expansion ExpansionSummary
}

// Measure runs the full suite on g. The graph must be connected (use
// graph.LargestComponent first, as every measurement study does). It
// accepts any graph.View — including an mmap-backed graph.Mapped or a
// graph.ShardedGraph, which routes every kernel through its per-shard
// path — and the report is bit-identical across substrates.
func Measure(ctx context.Context, name string, g graph.View, cfg Config) (*Report, error) {
	n := g.NumNodes()
	if n < 3 {
		return nil, fmt.Errorf("core: graph %q too small (%d nodes)", name, n)
	}
	if !graph.IsConnected(g) {
		return nil, fmt.Errorf("core: graph %q is not connected; measure its largest component", name)
	}
	cfg.fill(n)

	rep := &Report{
		Name:    name,
		Nodes:   n,
		Edges:   g.NumEdges(),
		Epsilon: cfg.Epsilon,
	}

	// Spectral bound (§III-C).
	sr, err := spectral.SLEM(g, spectral.Config{Tolerance: cfg.SpectralTolerance, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("core: slem of %q: %w", name, err)
	}
	rep.SLEM = sr.SLEM
	if sr.SLEM > 0 && sr.SLEM < 1 {
		b, err := spectral.MixingBounds(n, sr.SLEM, cfg.Epsilon)
		if err != nil {
			return nil, fmt.Errorf("core: bounds of %q: %w", name, err)
		}
		rep.Bounds = b
	}

	// Sampling-method mixing measurement (§III-C, Figure 1).
	mix, err := walk.MeasureMixing(ctx, g, walk.MixingConfig{
		MaxSteps: cfg.MixingMaxSteps,
		Sources:  cfg.MixingSources,
		Seed:     cfg.Seed,
		Workers:  cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("core: mixing of %q: %w", name, err)
	}
	rep.Mixing = mix
	rep.MixingTime, rep.MixedWithinBudget = mix.MixingTime(cfg.Epsilon)

	// Core structure (§III-B, Figures 2 and 5).
	dec, err := kcore.Decompose(g)
	if err != nil {
		return nil, fmt.Errorf("core: decompose %q: %w", name, err)
	}
	levels := dec.Levels()
	cs := CoreSummary{
		Degeneracy: dec.Degeneracy(),
		Levels:     levels,
	}
	if len(levels) > 0 {
		top := levels[len(levels)-1]
		cs.TopCoreNuTilde = top.NuTilde
		cs.TopCoreNu = top.Nu
		cs.TopCoreComponents = top.Components
	}
	var meanCore float64
	samples := dec.CorenessECDFSamples()
	for _, c := range samples {
		meanCore += c
	}
	cs.MeanCoreness = meanCore / float64(len(samples))
	ecdf, err := stats.NewECDF(samples)
	if err != nil {
		return nil, fmt.Errorf("core: coreness ecdf of %q: %w", name, err)
	}
	cs.CorenessECDF = ecdf
	rep.Cores = cs

	// Expansion (§III-D, Figures 3 and 4).
	ecfg := expansion.Config{Workers: cfg.Workers}
	if cfg.ExpansionSources > 0 {
		srcs, err := expansion.SampledSources(g, cfg.ExpansionSources, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: expansion sources of %q: %w", name, err)
		}
		ecfg.Sources = srcs
	}
	exp, err := expansion.Measure(ctx, g, ecfg)
	if err != nil {
		return nil, fmt.Errorf("core: expansion of %q: %w", name, err)
	}
	es := ExpansionSummary{Result: exp}
	if a, ok := exp.VertexExpansion(n); ok {
		es.MinAlpha = a
	}
	var sum stats.Summary
	for _, size := range exp.FactorBySetSize.Keys() {
		if size > int64(n)/10 {
			continue
		}
		s, ok := exp.FactorBySetSize.Get(size)
		if ok {
			sum.Add(s.Mean())
		}
	}
	es.MeanAlphaSmallSets = sum.Mean()
	rep.Expansion = es
	return rep, nil
}

// EffectiveMixingSteps returns the measured T(ε) when reached, and
// otherwise the measurement budget (a lower bound on the true mixing
// time), which is how the cross-graph comparisons rank graphs that did
// not mix within budget.
func (r *Report) EffectiveMixingSteps() float64 {
	if r.MixedWithinBudget {
		return float64(r.MixingTime)
	}
	return float64(len(r.Mixing.MaxTVD)) * (1 + r.Mixing.MaxTVD[len(r.Mixing.MaxTVD)-1])
}

// CrossAnalysis is the §V correlational analysis across graphs.
type CrossAnalysis struct {
	// MixingVsTopCoreNu is the Spearman correlation between mixing
	// slowness and the relative size of the top connected core. The
	// paper's claim is a strong negative correlation (fast mixers have
	// big cores).
	MixingVsTopCoreNu float64
	// MixingVsCoreComponents correlates mixing slowness with the number
	// of connected cores at the degeneracy (positive per the paper).
	MixingVsCoreComponents float64
	// MixingVsExpansion correlates mixing slowness with the mean
	// expansion factor over small sets (negative per §V: expansion and
	// mixing are "analogous").
	MixingVsExpansion float64
	// SLEMVsMixing sanity-checks the two mixing measurements against
	// each other (positive).
	SLEMVsMixing float64
}

// Analyze computes the cross-property correlations over a set of reports.
func Analyze(reports []*Report) (*CrossAnalysis, error) {
	if len(reports) < 3 {
		return nil, fmt.Errorf("core: need >= 3 reports for correlation, got %d", len(reports))
	}
	slow := make([]float64, len(reports))
	nu := make([]float64, len(reports))
	comps := make([]float64, len(reports))
	alpha := make([]float64, len(reports))
	mus := make([]float64, len(reports))
	for i, r := range reports {
		slow[i] = r.EffectiveMixingSteps()
		nu[i] = r.Cores.TopCoreNu
		comps[i] = float64(r.Cores.TopCoreComponents)
		alpha[i] = r.Expansion.MeanAlphaSmallSets
		mus[i] = r.SLEM
	}
	out := &CrossAnalysis{}
	var err error
	if out.MixingVsTopCoreNu, err = stats.Spearman(slow, nu); err != nil {
		return nil, err
	}
	if out.MixingVsCoreComponents, err = stats.Spearman(slow, comps); err != nil {
		return nil, err
	}
	if out.MixingVsExpansion, err = stats.Spearman(slow, alpha); err != nil {
		return nil, err
	}
	if out.SLEMVsMixing, err = stats.Spearman(mus, slow); err != nil {
		return nil, err
	}
	// Constant columns (e.g. every graph having a single core) make a
	// correlation undefined; those entries are NaN and callers must
	// handle them.
	return out, nil
}
