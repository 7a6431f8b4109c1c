package trustnetd

import (
	"context"
	"fmt"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/kcore"
	"github.com/trustnet/trustnet/internal/report"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/walk"
)

// MeasureConfig is the typed, fingerprinted configuration of one
// queued measurement — the config half of its artifact cache key.
// Worker count is deliberately absent: the repo's determinism contract
// makes results bit-identical at any parallelism, so artifacts are
// shared across differently-sized deployments.
type MeasureConfig struct {
	// Seed drives source sampling and the spectral start vector.
	Seed int64 `json:"seed,omitempty"`
	// Sources is the number of sampled walk sources (mixing).
	Sources int `json:"sources,omitempty"`
	// MaxSteps bounds the walk length explored (mixing).
	MaxSteps int `json:"max_steps,omitempty"`
	// ExpansionSources is the number of sampled BFS cores (expansion).
	ExpansionSources int `json:"expansion_sources,omitempty"`
	// Tolerance is the SLEM's Lanczos stopping tolerance (slem): the
	// iteration stops once μ moves by less than it in a step; 0 uses
	// the spectral package default.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Epsilon is the variation-distance target for mixing-time readouts
	// and Sinclair bounds; 0 means 1/n.
	Epsilon float64 `json:"epsilon,omitempty"`
}

// fill resolves the zero values to the daemon defaults, so equal
// requests fingerprint equally whether the client spelled the defaults
// out or omitted them.
func (c MeasureConfig) fill() MeasureConfig {
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

// measureKey is the fingerprinted config struct: the job name plus the
// filled MeasureConfig, so two measurements with equal knobs never
// share a cache slot.
type measureKey struct {
	Job string `json:"job"`
	MeasureConfig
}

// measureSpec is one catalog entry: a registry name and a run body
// bound late to the graph under measurement.
type measureSpec struct {
	name    string
	summary string
	run     func(ctx context.Context, g graph.View, cfg MeasureConfig, b *jobs.Builder) error
}

// measureSpecs is the daemon's measurement battery: the paper's §III
// property probes, one addressable job each.
var measureSpecs = []measureSpec{
	{"mixing", "sampling-method mixing time (paper §III-C, Figure 1)", mixingJob},
	{"expansion", "BFS-envelope expansion factors (paper §III-D, Figures 3-4)", expansionJob},
	{"coreness", "k-core decomposition and degeneracy (paper §III-B, Figure 2)", corenessJob},
	{"slem", "second largest eigenvalue modulus and Sinclair bounds (paper §III-C)", slemJob},
}

// Jobs builds the per-graph measurement battery as a jobs.Registry: one
// typed job per paper measurement, bound to g under the filled cfg. The
// registry resolves request names case-insensitively with nearest-name
// suggestions. A nil g yields a catalog-only registry — names and
// fingerprints are valid, running a job is not.
func Jobs(g graph.View, cfg MeasureConfig) (*jobs.Registry, error) {
	cfg = cfg.fill()
	reg := jobs.NewRegistry()
	for _, spec := range measureSpecs {
		spec := spec
		j := jobs.New(spec.name, measureKey{Job: spec.name, MeasureConfig: cfg},
			func(ctx context.Context, env jobs.Env) (*jobs.Artifact, error) {
				if g == nil {
					return nil, fmt.Errorf("trustnetd: job %s not bound to a graph", spec.name)
				}
				b := jobs.NewBuilder()
				if err := spec.run(ctx, g, cfg, b); err != nil {
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

// epsilonFor resolves the variation-distance target: an explicit
// configuration wins, else the paper's 1/n.
func epsilonFor(cfg MeasureConfig, n int) float64 {
	if cfg.Epsilon > 0 {
		return cfg.Epsilon
	}
	return 1 / float64(n)
}

// mixingJob measures the sampling-method mixing time: per-step TVD
// envelopes over sampled sources, filed as mixing.csv, with the T(ε)
// readout and the canonical result fingerprint in the summary.
func mixingJob(ctx context.Context, g graph.View, cfg MeasureConfig, b *jobs.Builder) error {
	res, err := walk.MeasureMixing(ctx, g, walk.MixingConfig{
		MaxSteps: cfg.MaxSteps,
		Sources:  cfg.Sources,
		Seed:     cfg.Seed,
	})
	if err != nil {
		return err
	}
	eps := epsilonFor(cfg, g.NumNodes())
	t, within := res.MixingTime(eps)
	if within {
		b.Printf("mixing time T(%.2e) = %d steps (worst of %d sources)\n", eps, t, len(res.Sources))
	} else {
		b.Printf("did not mix to eps=%.2e within %d steps (final worst TVD %.4f)\n",
			eps, len(res.MaxTVD), res.MaxTVD[len(res.MaxTVD)-1])
	}
	b.Printf("fingerprint %s\n", jobs.MixingFingerprint(res))
	series := []report.Series{
		{Name: "min_tvd", X: stepAxis(len(res.MinTVD)), Y: res.MinTVD},
		{Name: "mean_tvd", X: stepAxis(len(res.MeanTVD)), Y: res.MeanTVD},
		{Name: "max_tvd", X: stepAxis(len(res.MaxTVD)), Y: res.MaxTVD},
	}
	return b.SaveCSV("mixing.csv", series)
}

// stepAxis returns the 1-based walk-length axis of a TVD curve.
func stepAxis(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i + 1)
	}
	return x
}

// expansionJob measures BFS-envelope expansion over sampled cores,
// filing the per-set-size factor curve and summarizing the minimum and
// small-set mean α.
func expansionJob(ctx context.Context, g graph.View, cfg MeasureConfig, b *jobs.Builder) error {
	sources, err := expansion.SampledSources(g, cfg.ExpansionSources, cfg.Seed)
	if err != nil {
		return err
	}
	res, err := expansion.Measure(ctx, g, expansion.Config{Sources: sources})
	if err != nil {
		return err
	}
	var x, mean []float64
	minAlpha := 0.0
	first := true
	for _, k := range res.FactorBySetSize.Keys() {
		s, ok := res.FactorBySetSize.Get(k)
		if !ok {
			continue
		}
		x = append(x, float64(k))
		mean = append(mean, s.Mean())
		if first || s.Min() < minAlpha {
			minAlpha = s.Min()
			first = false
		}
	}
	b.Printf("expansion: min alpha = %.4f over %d cores (max eccentricity %d)\n",
		minAlpha, res.Sources, res.MaxEccentricity)
	b.Printf("fingerprint %s\n", jobs.ExpansionFingerprint(res))
	return b.SaveCSV("expansion.csv", []report.Series{{Name: "mean_alpha", X: x, Y: mean}})
}

// corenessJob runs the k-core decomposition, filing the coreness ECDF
// and summarizing the degeneracy and mean coreness.
func corenessJob(ctx context.Context, g graph.View, cfg MeasureConfig, b *jobs.Builder) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dec, err := kcore.Decompose(g)
	if err != nil {
		return err
	}
	samples := dec.CorenessECDFSamples()
	var mean float64
	for _, c := range samples {
		mean += c
	}
	if len(samples) > 0 {
		mean /= float64(len(samples))
	}
	b.Printf("coreness: degeneracy %d, mean coreness %.3f over %d nodes\n",
		dec.Degeneracy(), mean, g.NumNodes())
	b.Printf("fingerprint %s\n", jobs.CorenessFingerprint(dec))
	counts := make([]float64, dec.Degeneracy()+1)
	for _, c := range dec.CorenessValues() {
		counts[c]++
	}
	x := make([]float64, len(counts))
	for i := range x {
		x[i] = float64(i)
	}
	return b.SaveCSV("coreness.csv", []report.Series{{Name: "nodes_at_coreness", X: x, Y: counts}})
}

// slemJob computes the second largest eigenvalue modulus, its Ritz
// residual, and the Sinclair mixing-time bounds it implies at the
// configured ε. The iteration count in the artifact is Lanczos steps.
func slemJob(ctx context.Context, g graph.View, cfg MeasureConfig, b *jobs.Builder) error {
	res, err := spectral.SLEMContext(ctx, g, spectral.Config{Tolerance: cfg.Tolerance, Seed: cfg.Seed})
	if err != nil {
		return err
	}
	b.Printf("slem: mu = %.6f (converged=%v after %d iterations)\n", res.SLEM, res.Converged, res.Iterations)
	b.Printf("slem: residual = %.2e (an eigenvalue of the walk lies within it of +/-mu)\n", res.Residual)
	if res.SLEM > 0 && res.SLEM < 1 {
		eps := epsilonFor(cfg, g.NumNodes())
		bounds, err := spectral.MixingBounds(g.NumNodes(), res.SLEM, eps)
		if err != nil {
			return err
		}
		b.Printf("Sinclair bounds at eps=%.2e: %.1f <= T <= %.1f\n", eps, bounds.Lower, bounds.Upper)
	}
	return nil
}
