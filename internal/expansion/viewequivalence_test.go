package expansion

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

// churnView mirrors the walk package's helper: deterministic node churn
// plus edge drops, with an independent Builder rebuild as the reference.
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

func checkExpansionIdentical(t *testing.T, a, b graph.View, cfg Config) {
	t.Helper()
	ra, err := Measure(context.Background(), a, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Measure(context.Background(), b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("expansion results diverge between view and rebuilt copy:\n%+v\nvs\n%+v", ra, rb)
	}
}

// TestEquivalenceViewExpansionMasked checks the BFS envelopes measured on
// a churned MaskedView against the rebuilt CSR and against the scalar
// oracle traversing the view, on a small and a large graph (the view is
// materialized once either way).
func TestEquivalenceViewExpansionMasked(t *testing.T) {
	small, err := gen.BarabasiAlbert(300, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	mv, rebuilt := churnView(t, small, 1)
	srcs, err := SampledSources(mv, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	srcsRebuilt, err := SampledSources(rebuilt, 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srcs, srcsRebuilt) {
		t.Fatal("sampled sources differ between view and rebuilt copy")
	}
	checkExpansionIdentical(t, mv, rebuilt, Config{Sources: srcs, Workers: 8})
	checkExpansionOracle(t, mv, Config{Sources: srcs})

	big, err := gen.BarabasiAlbert(5000, 4, 22)
	if err != nil {
		t.Fatal(err)
	}
	mvBig, rebuiltBig := churnView(t, big, 2)
	srcsBig, err := SampledSources(mvBig, 192, 9)
	if err != nil {
		t.Fatal(err)
	}
	checkExpansionIdentical(t, mvBig, rebuiltBig, Config{Sources: srcsBig, Workers: 8})
	checkExpansionOracle(t, mvBig, Config{Sources: srcsBig})
}
