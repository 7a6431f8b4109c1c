// End-to-end integration tests exercising the library the way the cmd
// tools and a downstream user would: generate → persist → reload →
// measure → defend, asserting the paper's qualitative claims hold across
// the full pipeline rather than within single packages.
package trustnet

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"github.com/trustnet/trustnet/internal/core"
	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/sybil"
	"github.com/trustnet/trustnet/internal/sybil/gatekeeper"
	"github.com/trustnet/trustnet/internal/walk"
)

// TestPipelineGeneratePersistMeasureDefend drives the full round trip.
func TestPipelineGeneratePersistMeasureDefend(t *testing.T) {
	// 1. Generate a dataset stand-in and persist it.
	spec, err := datasets.ByName("rice-grad")
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rice.txt")
	if err := graph.SaveEdgeList(path, g); err != nil {
		t.Fatal(err)
	}

	// 2. Reload and verify identity.
	g2, err := graph.LoadEdgeList(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed the graph: %v vs %v", g2, g)
	}

	// 3. Measure the reloaded graph.
	rep, err := core.Measure(context.Background(), "rice", g2, core.MeasureConfig{
		Seed: 1, Sources: 15, ExpansionSources: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.MixedWithinBudget {
		t.Fatal("rice-grad stand-in should mix within budget")
	}

	// 4. The measured properties license the defense: run GateKeeper and
	// check the guarantee materializes.
	a, err := sybil.Inject(g2, sybil.AttackConfig{SybilNodes: 100, AttackEdges: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := gatekeeper.Run(a, 0, gatekeeper.Config{Distributers: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	acc, err := out.Accepted(0.2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sybil.Evaluate(a, acc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.HonestAcceptRate() < 0.9 {
		t.Errorf("honest acceptance %v on a measured-good graph, want >= 0.9", m.HonestAcceptRate())
	}
	if m.SybilsPerAttackEdge() > 5 {
		t.Errorf("sybils per edge %v, want small on a measured-good graph", m.SybilsPerAttackEdge())
	}
}

// TestSpectralSamplingConsistencyAcrossRegistry cross-validates the two
// mixing measurements over the whole dataset registry: the ordering by
// SLEM must agree with the ordering by sampled mixing behavior.
func TestSpectralSamplingConsistencyAcrossRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("registry-wide consistency check is slow")
	}
	cache := &datasets.Cache{}
	type point struct {
		mu   float64
		tvd  float64 // worst-source TVD after 60 steps
		name string
	}
	var points []point
	for _, name := range []string{"wiki-vote", "epinion", "rice-grad", "physics-1", "physics-2", "dblp"} {
		g, err := cache.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := spectral.SLEM(g, spectral.Config{Tolerance: 1e-6, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		mr, err := walk.MeasureMixing(context.Background(), g, walk.MixingConfig{MaxSteps: 60, Sources: 10, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, point{mu: sr.SLEM, tvd: mr.MaxTVD[59], name: name})
	}
	for i := range points {
		for j := range points {
			if points[i].mu < points[j].mu-0.1 && points[i].tvd > points[j].tvd+0.1 {
				t.Errorf("ordering disagreement: %s (mu=%.3f, tvd=%.3f) vs %s (mu=%.3f, tvd=%.3f)",
					points[i].name, points[i].mu, points[i].tvd,
					points[j].name, points[j].mu, points[j].tvd)
			}
		}
	}
}

// TestEpsilonSensitivity confirms T(ε) is monotone in ε, a basic sanity
// invariant of the Eq. 2 measurement surfaced through the suite.
func TestEpsilonSensitivity(t *testing.T) {
	g, err := gen.BarabasiAlbert(400, 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := walk.MeasureMixing(context.Background(), g, walk.MixingConfig{MaxSteps: 120, Sources: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, eps := range []float64{0.5, 0.2, 0.1, 0.01, 0.001} {
		tm, ok := mr.MixingTime(eps)
		if !ok {
			break
		}
		if tm < prev {
			t.Errorf("T(%v) = %d < T at larger eps %d", eps, tm, prev)
		}
		prev = tm
	}
	if prev == 0 {
		t.Fatal("no epsilon level reached; measurement broken")
	}
	if math.IsNaN(mr.MeanTVD[0]) {
		t.Fatal("NaN in mixing curve")
	}
}
