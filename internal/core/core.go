// Package core is the paper's primary contribution as a library, and the
// repository's one measurement catalog: given any social graph, it
// quantifies the three algorithmic properties Sybil defenses rely on —
// mixing time (sampling method and spectral bound, §III-C), graph
// expansion (§III-D), and core structure (§III-B) — and the
// cross-property analysis of §IV/§V relating them (fast mixing ⇔ one
// large core; expansion ⇔ mixing).
//
// The four measurements — mixing, expansion, coreness and slem — share
// one config (MeasureConfig), one set of defaults, and have one body
// each. A body computes its measurement once, fills its part of a
// Report, and writes its summary lines and CSV into a jobs.Builder. Jobs
// registers the bodies as addressable jobs, which trustnetd serves and
// cmd/measure prints; Measure runs all four into one Report, which
// Analyze, the cross experiment and the quickstart read.
package core

import (
	"context"
	"fmt"
	"math"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/stats"
	"github.com/trustnet/trustnet/internal/walk"
)

// MeasureConfig is the typed, fingerprinted configuration of the four
// measurements: the config half of their artifact cache key, and the
// "config" body of a daemon job request. Zero fields take the catalog
// defaults (WithDefaults).
type MeasureConfig struct {
	// Seed drives source sampling and the spectral start vector; 0
	// means 1.
	Seed int64 `json:"seed,omitempty"`
	// Sources is the number of sampled walk sources (mixing); 0 means
	// 64 (the paper samples 1000).
	Sources int `json:"sources,omitempty"`
	// MaxSteps bounds the walk length explored (mixing); 0 means 200.
	MaxSteps int `json:"max_steps,omitempty"`
	// ExpansionSources is the number of sampled BFS cores (expansion);
	// 0 means 64. The sampler clamps it to n, so a value of at least n
	// measures from every node, as the paper does.
	ExpansionSources int `json:"expansion_sources,omitempty"`
	// Tolerance is the SLEM's Lanczos stopping tolerance (slem): the
	// iteration stops once μ moves by less than it in a step; 0 uses
	// the spectral package default.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Epsilon is the variation-distance target, in (0, 1), of the
	// mixing-time readout and the Sinclair bounds; 0 means 1/n, the
	// fast-mixing criterion of §III-C.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Workers bounds the parallelism of the measurements; <= 0 uses
	// GOMAXPROCS. It is not part of the fingerprint: results are
	// bit-identical at any worker count, so artifacts are shared across
	// differently sized deployments.
	Workers int `json:"-"`
}

// Validate rejects a config no measurement can honour: a negative
// count or tolerance, or a set ε outside (0, 1).
func (c MeasureConfig) Validate() error {
	switch {
	case c.Sources < 0:
		return fmt.Errorf("config: sources = %d, want >= 0", c.Sources)
	case c.MaxSteps < 0:
		return fmt.Errorf("config: max_steps = %d, want >= 0", c.MaxSteps)
	case c.ExpansionSources < 0:
		return fmt.Errorf("config: expansion_sources = %d, want >= 0", c.ExpansionSources)
	case c.Tolerance < 0 || math.IsNaN(c.Tolerance):
		return fmt.Errorf("config: tolerance = %v, want >= 0", c.Tolerance)
	case c.Epsilon != 0 && !(c.Epsilon > 0 && c.Epsilon < 1):
		return fmt.Errorf("config: epsilon = %v, want 0 (1/n) or a value in (0, 1)", c.Epsilon)
	}
	return nil
}

// WithDefaults resolves the zero counts and seed to the catalog
// defaults, so equal requests fingerprint equally whether the client
// spelled the defaults out or omitted them. Tolerance and Epsilon stay
// as given: the spectral default and 1/n resolve where they are used.
func (c MeasureConfig) WithDefaults() MeasureConfig {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sources == 0 {
		c.Sources = 64
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 200
	}
	if c.ExpansionSources == 0 {
		c.ExpansionSources = 64
	}
	return c
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
	// the worst sampled source (0 if not reached within MaxSteps, see
	// MixedWithinBudget).
	Mixing            *walk.MixingResult
	MixingTime        int
	MixedWithinBudget bool
	Epsilon           float64

	Cores     CoreSummary
	Expansion ExpansionSummary
}

// Measurement is one catalog entry: the job name, the one-line summary
// the daemon's catalog serves, and the body computing it.
type Measurement struct {
	Name    string
	Summary string
	run     func(ctx context.Context, g graph.View, cfg MeasureConfig, rep *Report, b *jobs.Builder) error
}

// catalog is the paper's §III property probes, in the order Measure
// runs them and Jobs registers them.
var catalog = []Measurement{
	{"mixing", "sampling-method mixing time (paper §III-C, Figure 1)", measureMixing},
	{"expansion", "BFS-envelope expansion factors (paper §III-D, Figures 3-4)", measureExpansion},
	{"coreness", "k-core decomposition, degeneracy and top core (paper §III-B, Figures 2 and 5)", measureCoreness},
	{"slem", "second largest eigenvalue modulus and Sinclair bounds (paper §III-C)", measureSLEM},
}

// Catalog returns the four measurements in catalog order.
func Catalog() []Measurement { return append([]Measurement(nil), catalog...) }

// measureKey is the fingerprinted config: the job name plus the filled
// MeasureConfig, so two measurements with equal knobs never share a
// cache slot.
type measureKey struct {
	Job string `json:"job"`
	MeasureConfig
}

// newReport starts the report of g under cfg, resolving ε.
func newReport(name string, g graph.View, cfg MeasureConfig) *Report {
	n := g.NumNodes()
	eps := cfg.Epsilon
	if eps == 0 {
		eps = 1 / float64(n)
	}
	return &Report{Name: name, Nodes: n, Edges: g.NumEdges(), Epsilon: eps}
}

// Jobs validates cfg and registers the catalog as a jobs.Registry: one
// typed job per measurement, bound to g under the filled cfg, whose
// artifact is the body's summary and CSV. The registry resolves names
// case-insensitively with nearest-name suggestions. A nil g yields a
// catalog-only registry — names and fingerprints are valid, running a
// job is not.
func Jobs(g graph.View, cfg MeasureConfig) (*jobs.Registry, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	reg := jobs.NewRegistry()
	for _, m := range catalog {
		j := jobs.New(m.Name, measureKey{Job: m.Name, MeasureConfig: cfg},
			func(ctx context.Context, _ jobs.Env) (*jobs.Artifact, error) {
				if g == nil {
					return nil, fmt.Errorf("core: job %s not bound to a graph", m.Name)
				}
				b := jobs.NewBuilder()
				if err := m.run(ctx, g, cfg, newReport("", g, cfg), b); err != nil {
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

// Measure runs the whole catalog on g into one Report. The graph must be
// connected (use graph.LargestComponent first, as every measurement
// study does). It accepts any graph.View — including an mmap-backed
// graph.Mapped or a graph.ShardedGraph, which routes every kernel
// through its per-shard path — and the report is bit-identical across
// substrates.
func Measure(ctx context.Context, name string, g graph.View, cfg MeasureConfig) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n := g.NumNodes(); n < 3 {
		return nil, fmt.Errorf("core: graph %q too small (%d nodes)", name, n)
	}
	if !graph.IsConnected(g) {
		return nil, fmt.Errorf("core: graph %q is not connected; measure its largest component", name)
	}
	cfg = cfg.WithDefaults()
	rep := newReport(name, g, cfg)
	b := jobs.NewBuilder()
	for _, m := range catalog {
		if err := m.run(ctx, g, cfg, rep, b); err != nil {
			return nil, fmt.Errorf("core: %s of %q: %w", m.Name, name, err)
		}
	}
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
