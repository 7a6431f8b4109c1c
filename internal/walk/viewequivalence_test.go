package walk

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

// churnView kills nodes and drops edges deterministically, returning the
// masked view plus an independently Builder-built copy of the surviving
// topology (not view.Materialize — the reference must not share code with
// the thing under test).
func churnView(t *testing.T, g *graph.Graph, seed int64) (*graph.MaskedView, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mv := graph.NewMaskedView(g)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if rng.Float64() < 0.15 {
			mv.SetAlive(v, false)
		}
	}
	edges := g.Edges()
	for i := 0; i < len(edges)/20; i++ {
		e := edges[rng.Intn(len(edges))]
		mv.DropEdge(e.U, e.V)
	}
	b := graph.NewBuilder(g.NumNodes())
	mv.VisitEdges(func(e graph.Edge) bool {
		b.AddEdgeSafe(e.U, e.V)
		return true
	})
	return mv, b.Build()
}

// checkMixingIdentical measures both targets and requires bit-identical
// results, including per-source curves.
func checkMixingIdentical(t *testing.T, a, b graph.View, cfg MixingConfig) {
	t.Helper()
	ra, err := MeasureMixing(context.Background(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := MeasureMixing(context.Background(), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Curves) != len(rb.Curves) {
		t.Fatalf("curve counts differ: %d vs %d", len(ra.Curves), len(rb.Curves))
	}
	for i := range ra.Curves {
		for s := range ra.Curves[i] {
			if ra.Curves[i][s] != rb.Curves[i][s] {
				t.Fatalf("curve %d step %d: %v vs %v (must be bit-identical)",
					i, s, ra.Curves[i][s], rb.Curves[i][s])
			}
		}
	}
	for s := range ra.MeanTVD {
		if ra.MeanTVD[s] != rb.MeanTVD[s] || ra.MaxTVD[s] != rb.MaxTVD[s] || ra.MinTVD[s] != rb.MinTVD[s] {
			t.Fatalf("aggregate at step %d diverges", s)
		}
	}
}

// TestEquivalenceViewMixingMasked checks that mixing measured directly on
// a churned MaskedView is bit-identical to mixing on the rebuilt CSR copy
// of the same topology and to the per-source oracle walking the view, on
// a small and a large graph (the view is materialized once either way).
func TestEquivalenceViewMixingMasked(t *testing.T) {
	small, err := gen.BarabasiAlbert(400, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	mv, rebuilt := churnView(t, small, 1)
	cfg := MixingConfig{MaxSteps: 12, Sources: 17, Seed: 5, Workers: 8}
	checkMixingIdentical(t, mv, rebuilt, cfg)
	checkMixingOracle(t, mv, cfg)

	big, err := gen.BarabasiAlbert(5000, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	mvBig, rebuiltBig := churnView(t, big, 2)
	cfgBig := MixingConfig{MaxSteps: 8, Sources: 16, Seed: 5, Workers: 8}
	checkMixingIdentical(t, mvBig, rebuiltBig, cfgBig)
	checkMixingOracle(t, mvBig, cfgBig)
}

// TestEquivalenceViewMixingFullyChurned: a view with every node down has
// no edges, and both paths must refuse identically.
func TestEquivalenceViewMixingFullyChurned(t *testing.T) {
	g, err := gen.BarabasiAlbert(100, 3, 14)
	if err != nil {
		t.Fatal(err)
	}
	mv := graph.NewMaskedView(g)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		mv.SetAlive(v, false)
	}
	_, errView := MeasureMixing(context.Background(), mv, MixingConfig{MaxSteps: 4, Sources: 2, Seed: 1})
	_, errRebuilt := MeasureMixing(context.Background(), graph.NewBuilder(g.NumNodes()).Build(),
		MixingConfig{MaxSteps: 4, Sources: 2, Seed: 1})
	if !errors.Is(errView, ErrNoEdges) || !errors.Is(errRebuilt, ErrNoEdges) {
		t.Fatalf("fully churned: view err %v, rebuilt err %v, want both %v", errView, errRebuilt, ErrNoEdges)
	}
}
