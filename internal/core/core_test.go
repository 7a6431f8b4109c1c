package core

import (
	"context"
	"math"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

func fastGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(500, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func slowGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities: 8, CommunitySize: 64, Attach: 4, Bridges: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// oldDefaults is the config these tests were written against: 50 walk
// sources, every node as a BFS core, and a 1e-7 SLEM tolerance.
func oldDefaults(g graph.View) MeasureConfig {
	return MeasureConfig{Seed: 1, Sources: 50, ExpansionSources: g.NumNodes(), Tolerance: 1e-7}
}

func TestMeasureFastMixer(t *testing.T) {
	g := fastGraph(t)
	rep, err := Measure(context.Background(), "fast", g, oldDefaults(g))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name != "fast" || rep.Nodes != 500 {
		t.Errorf("header = %s/%d", rep.Name, rep.Nodes)
	}
	if rep.SLEM <= 0 || rep.SLEM >= 1 {
		t.Errorf("SLEM = %v, want in (0,1)", rep.SLEM)
	}
	if !rep.MixedWithinBudget {
		t.Error("fast mixer did not mix within budget")
	}
	if rep.Bounds.Upper <= 0 {
		t.Errorf("bounds = %+v", rep.Bounds)
	}
	if float64(rep.MixingTime) > math.Ceil(rep.Bounds.Upper) {
		t.Errorf("measured T = %d exceeds Sinclair upper bound %v", rep.MixingTime, rep.Bounds.Upper)
	}
	if rep.Cores.Degeneracy != 5 {
		t.Errorf("degeneracy = %d, want 5 for BA attach=5", rep.Cores.Degeneracy)
	}
	if rep.Cores.TopCoreComponents != 1 {
		t.Errorf("top core components = %d, want 1 for a fast mixer", rep.Cores.TopCoreComponents)
	}
	if rep.Cores.TopCoreNu < 0.9 {
		t.Errorf("top core ν = %v, want ~1 for BA", rep.Cores.TopCoreNu)
	}
	if rep.Expansion.MinAlpha <= 0 || rep.Expansion.MeanAlphaSmallSets <= 0 {
		t.Errorf("expansion summary = %+v", rep.Expansion)
	}
}

func TestMeasureContrastsFastAndSlow(t *testing.T) {
	ctx := context.Background()
	fg, sg := fastGraph(t), slowGraph(t)
	fast, err := Measure(ctx, "fast", fg, oldDefaults(fg))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Measure(ctx, "slow", sg, oldDefaults(sg))
	if err != nil {
		t.Fatal(err)
	}
	if fast.SLEM >= slow.SLEM {
		t.Errorf("SLEM fast %v >= slow %v", fast.SLEM, slow.SLEM)
	}
	if fast.EffectiveMixingSteps() >= slow.EffectiveMixingSteps() {
		t.Errorf("mixing fast %v >= slow %v", fast.EffectiveMixingSteps(), slow.EffectiveMixingSteps())
	}
	if slow.Cores.TopCoreComponents < 2 {
		t.Errorf("slow mixer has %d top cores, want several", slow.Cores.TopCoreComponents)
	}
	if fast.Cores.TopCoreNu <= slow.Cores.TopCoreNu {
		t.Errorf("top core ν fast %v <= slow %v", fast.Cores.TopCoreNu, slow.Cores.TopCoreNu)
	}
	if fast.Expansion.MeanAlphaSmallSets <= slow.Expansion.MeanAlphaSmallSets {
		t.Errorf("expansion fast %v <= slow %v",
			fast.Expansion.MeanAlphaSmallSets, slow.Expansion.MeanAlphaSmallSets)
	}
}

func TestMeasureValidation(t *testing.T) {
	ctx := context.Background()
	tiny, err := gen.Complete(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(ctx, "tiny", tiny, MeasureConfig{}); err == nil {
		t.Error("Measure(tiny): want error")
	}
	b := graph.NewBuilder(6)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(ctx, "disc", b.Build(), MeasureConfig{}); err == nil {
		t.Error("Measure(disconnected): want error")
	}
	// Jobs and Measure reject an out-of-range config before any work,
	// and accept the zero config and a set ε inside (0, 1).
	g := fastGraph(t)
	for _, cfg := range []MeasureConfig{
		{Sources: -3}, {MaxSteps: -1}, {ExpansionSources: -1},
		{Tolerance: -1e-6}, {Tolerance: math.NaN()},
		{Epsilon: 2}, {Epsilon: 1}, {Epsilon: -0.5}, {Epsilon: math.NaN()},
	} {
		if _, err := Jobs(g, cfg); err == nil {
			t.Errorf("Jobs(%+v): want error", cfg)
		}
		if _, err := Measure(ctx, "g", g, cfg); err == nil {
			t.Errorf("Measure(%+v): want error", cfg)
		}
	}
	for _, cfg := range []MeasureConfig{{}, {Epsilon: 0.5, Tolerance: 1e-3}} {
		if _, err := Jobs(g, cfg); err != nil {
			t.Errorf("Jobs(%+v): %v", cfg, err)
		}
	}
}

func TestMeasureSampledExpansion(t *testing.T) {
	g := fastGraph(t)
	rep, err := Measure(context.Background(), "sampled", g, MeasureConfig{Seed: 2, ExpansionSources: 25})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Expansion.Result.Sources != 25 {
		t.Errorf("expansion sources = %d, want 25", rep.Expansion.Result.Sources)
	}
}

func TestAnalyzeRecoverssPaperCorrelations(t *testing.T) {
	ctx := context.Background()
	var reports []*Report
	// Three fast, three slow graphs of varied sizes.
	for i, n := range []int{300, 450, 600} {
		g, err := gen.BarabasiAlbert(n, 4+i, int64(10+i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := oldDefaults(g)
		cfg.Sources = 20
		rep, err := Measure(ctx, "fast", g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	for i, c := range []int{5, 8, 11} {
		g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
			Communities: c, CommunitySize: 60, Attach: 4, Bridges: 1, Seed: int64(20 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := oldDefaults(g)
		cfg.Sources = 20
		rep, err := Measure(ctx, "slow", g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	an, err := Analyze(reports)
	if err != nil {
		t.Fatal(err)
	}
	if !(an.MixingVsTopCoreNu < 0) {
		t.Errorf("mixing↔topCoreNu = %v, want negative (fast mixers have big cores)", an.MixingVsTopCoreNu)
	}
	if !(an.MixingVsCoreComponents > 0) {
		t.Errorf("mixing↔coreComponents = %v, want positive (slow mixers split)", an.MixingVsCoreComponents)
	}
	if !(an.MixingVsExpansion < 0) {
		t.Errorf("mixing↔expansion = %v, want negative (expansion tracks mixing)", an.MixingVsExpansion)
	}
	if !(an.SLEMVsMixing > 0) {
		t.Errorf("slem↔mixing = %v, want positive", an.SLEMVsMixing)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("Analyze(nil): want error")
	}
}

func TestEffectiveMixingStepsFallback(t *testing.T) {
	g := slowGraph(t)
	rep, err := Measure(context.Background(), "slow", g, MeasureConfig{Seed: 1, MaxSteps: 10, Sources: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MixedWithinBudget {
		t.Skip("slow graph unexpectedly mixed in 10 steps")
	}
	if rep.EffectiveMixingSteps() <= 10 {
		t.Errorf("EffectiveMixingSteps = %v, want > budget of 10", rep.EffectiveMixingSteps())
	}
}
