package core

import (
	"context"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/kcore"
	"github.com/trustnet/trustnet/internal/report"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/stats"
	"github.com/trustnet/trustnet/internal/walk"
)

// measureMixing measures the sampling-method mixing time: per-step TVD
// envelopes over sampled sources, filed as mixing.csv, with the T(ε)
// readout, the canonical result fingerprint and the TVD at walk lengths
// 1, 2, 4, …, 200 in the summary.
func measureMixing(ctx context.Context, g graph.View, cfg MeasureConfig, rep *Report, b *jobs.Builder) error {
	res, err := walk.MeasureMixing(ctx, g, walk.MixingConfig{
		MaxSteps: cfg.MaxSteps,
		Sources:  cfg.Sources,
		Seed:     cfg.Seed,
		Workers:  cfg.Workers,
	})
	if err != nil {
		return err
	}
	rep.Mixing = res
	rep.MixingTime, rep.MixedWithinBudget = res.MixingTime(rep.Epsilon)
	if rep.MixedWithinBudget {
		b.Printf("mixing time T(%.2e) = %d steps (worst of %d sources)\n", rep.Epsilon, rep.MixingTime, len(res.Sources))
	} else {
		b.Printf("did not mix to eps=%.2e within %d steps (final worst TVD %.4f)\n",
			rep.Epsilon, len(res.MaxTVD), res.MaxTVD[len(res.MaxTVD)-1])
	}
	b.Printf("fingerprint %s\n", jobs.MixingFingerprint(res))
	t := report.NewTable("", "walk length", "min TVD", "mean TVD", "max TVD")
	for _, i := range []int{0, 1, 3, 7, 15, 31, 63, 127, 199} {
		if i >= len(res.MeanTVD) {
			break
		}
		if err := t.AddRow(report.Int(i+1),
			report.Float(res.MinTVD[i], 4), report.Float(res.MeanTVD[i], 4), report.Float(res.MaxTVD[i], 4)); err != nil {
			return err
		}
	}
	if err := b.Table(t); err != nil {
		return err
	}
	steps := make([]float64, len(res.MaxTVD))
	for i := range steps {
		steps[i] = float64(i + 1)
	}
	return b.SaveCSV("mixing.csv", []report.Series{
		{Name: "min_tvd", X: steps, Y: res.MinTVD},
		{Name: "mean_tvd", X: steps, Y: res.MeanTVD},
		{Name: "max_tvd", X: steps, Y: res.MaxTVD},
	})
}

// measureExpansion measures BFS-envelope expansion over sampled cores,
// filing the per-set-size factor curve as expansion.csv and summarizing
// the sampled vertex expansion (the minimum α over envelopes of at most
// n/2 nodes) and the mean α over envelopes of at most n/10 nodes.
func measureExpansion(ctx context.Context, g graph.View, cfg MeasureConfig, rep *Report, b *jobs.Builder) error {
	sources, err := expansion.SampledSources(g, cfg.ExpansionSources, cfg.Seed)
	if err != nil {
		return err
	}
	res, err := expansion.Measure(ctx, g, expansion.Config{Sources: sources, Workers: cfg.Workers})
	if err != nil {
		return err
	}
	n := int64(g.NumNodes())
	es := ExpansionSummary{Result: res}
	es.MinAlpha, _ = res.VertexExpansion(int(n))
	var x, mean []float64
	var small stats.Summary
	for _, k := range res.FactorBySetSize.Keys() {
		s, ok := res.FactorBySetSize.Get(k)
		if !ok {
			continue
		}
		x = append(x, float64(k))
		mean = append(mean, s.Mean())
		if k <= n/10 {
			small.Add(s.Mean())
		}
	}
	es.MeanAlphaSmallSets = small.Mean()
	rep.Expansion = es
	b.Printf("expansion: min alpha = %.4f over %d cores (max eccentricity %d)\n",
		es.MinAlpha, res.Sources, res.MaxEccentricity)
	b.Printf("fingerprint %s\n", jobs.ExpansionFingerprint(res))
	b.Printf("expansion: mean alpha over sets of at most n/10 nodes = %.3f\n", es.MeanAlphaSmallSets)
	return b.SaveCSV("expansion.csv", []report.Series{{Name: "mean_alpha", X: x, Y: mean}})
}

// measureCoreness runs the k-core decomposition, filing the nodes per
// coreness as coreness.csv and summarizing the degeneracy, the mean
// coreness, and the top core's ν, ν̃ and number of connected cores.
func measureCoreness(ctx context.Context, g graph.View, _ MeasureConfig, rep *Report, b *jobs.Builder) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	dec, err := kcore.Decompose(g)
	if err != nil {
		return err
	}
	n := float64(g.NumNodes())
	cs := CoreSummary{Degeneracy: dec.Degeneracy()}
	counts := make([]float64, cs.Degeneracy+1)
	for _, c := range dec.CorenessValues() {
		cs.MeanCoreness += float64(c)
		counts[c]++
	}
	cs.MeanCoreness /= n
	if levels := dec.Levels(); len(levels) > 0 {
		top := levels[len(levels)-1]
		cs.TopCoreNuTilde, cs.TopCoreNu, cs.TopCoreComponents = top.NuTilde, top.Nu, top.Components
	}
	rep.Cores = cs
	b.Printf("coreness: degeneracy %d, mean coreness %.3f over %d nodes\n", cs.Degeneracy, cs.MeanCoreness, g.NumNodes())
	b.Printf("fingerprint %s\n", jobs.CorenessFingerprint(dec))
	b.Printf("coreness: top core nu=%.3f nu~=%.3f components=%d\n", cs.TopCoreNu, cs.TopCoreNuTilde, cs.TopCoreComponents)
	x := make([]float64, len(counts))
	for i := range x {
		x[i] = float64(i)
	}
	return b.SaveCSV("coreness.csv", []report.Series{{Name: "nodes_at_coreness", X: x, Y: counts}})
}

// measureSLEM computes the second largest eigenvalue modulus, its Ritz
// residual, and the Sinclair mixing-time bounds it implies at ε. The
// iteration count in the summary is Lanczos steps.
func measureSLEM(ctx context.Context, g graph.View, cfg MeasureConfig, rep *Report, b *jobs.Builder) error {
	res, err := spectral.SLEMContext(ctx, g, spectral.Config{Tolerance: cfg.Tolerance, Seed: cfg.Seed, Workers: cfg.Workers})
	if err != nil {
		return err
	}
	rep.SLEM = res.SLEM
	b.Printf("slem: mu = %.6f (converged=%v after %d iterations)\n", res.SLEM, res.Converged, res.Iterations)
	b.Printf("slem: residual = %.2e (an eigenvalue of the walk lies within it of +/-mu)\n", res.Residual)
	if res.SLEM > 0 && res.SLEM < 1 {
		if rep.Bounds, err = spectral.MixingBounds(rep.Nodes, res.SLEM, rep.Epsilon); err != nil {
			return err
		}
		b.Printf("Sinclair bounds at eps=%.2e: %.1f <= T <= %.1f\n", rep.Epsilon, rep.Bounds.Lower, rep.Bounds.Upper)
	}
	return nil
}
