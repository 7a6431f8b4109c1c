package kcore

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

// TestEquivalenceViewCorenessMasked checks that the peeling decomposition
// run directly on a churned MaskedView matches the decomposition of an
// independently rebuilt CSR of the same topology.
func TestEquivalenceViewCorenessMasked(t *testing.T) {
	g, err := gen.BarabasiAlbert(800, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	mv := graph.NewMaskedView(g)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if rng.Float64() < 0.2 {
			mv.SetAlive(v, false)
		}
	}
	edges := g.Edges()
	for i := 0; i < len(edges)/10; i++ {
		e := edges[rng.Intn(len(edges))]
		mv.DropEdge(e.U, e.V)
	}
	b := graph.NewBuilder(g.NumNodes())
	mv.VisitEdges(func(e graph.Edge) bool {
		b.AddEdgeSafe(e.U, e.V)
		return true
	})
	rebuilt := b.Build()

	dv, err := Decompose(mv)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := Decompose(rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dv.CorenessValues(), dr.CorenessValues()) {
		t.Fatal("coreness diverges between masked view and rebuilt copy")
	}
	if dv.Degeneracy() != dr.Degeneracy() {
		t.Fatalf("degeneracy %d vs %d", dv.Degeneracy(), dr.Degeneracy())
	}
}

// levelsOracle is the per-k construction Levels replaced: G̃_k built as
// CoreSubgraph(k) and its components searched with
// graph.ConnectedComponents.
func levelsOracle(d *Decomposition) []LevelStats {
	n, m := d.g.NumNodes(), d.g.NumEdges()
	out := make([]LevelStats, 0, d.Degeneracy())
	for k := 1; k <= d.Degeneracy(); k++ {
		sub, _ := d.CoreSubgraph(k)
		_, sizes := graph.ConnectedComponents(sub)
		largest := slices.Max(sizes)
		out = append(out, LevelStats{
			K:                     k,
			Nodes:                 sub.NumNodes(),
			Edges:                 sub.NumEdges(),
			NuTilde:               float64(sub.NumNodes()) / float64(n),
			EdgeFraction:          float64(sub.NumEdges()) / float64(m),
			Components:            len(sizes),
			LargestComponentNodes: int(largest),
			Nu:                    float64(largest) / float64(n),
		})
	}
	return out
}

// TestEquivalenceLevels checks the union-find Levels against
// levelsOracle on every dataset stand-in, a disconnected graph, one with
// isolated nodes, an edgeless graph (no levels), and a churned
// MaskedView, whose levels must also equal its rebuilt copy's.
func TestEquivalenceLevels(t *testing.T) {
	check := func(name string, g graph.View) []LevelStats {
		t.Helper()
		d, err := Decompose(g)
		if err != nil {
			t.Fatal(err)
		}
		got, want := d.Levels(), levelsOracle(d)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: levels diverge from the per-k oracle:\n got %+v\nwant %+v", name, got, want)
		}
		return got
	}
	for _, sp := range datasets.All() {
		g, err := sp.Generate()
		if err != nil {
			t.Fatal(err)
		}
		check(sp.Name, g)
	}

	// Two BA graphs side by side, each of whose cores may split, and
	// isolated nodes around them.
	a, err := gen.BarabasiAlbert(300, 3, 41)
	if err != nil {
		t.Fatal(err)
	}
	c, err := gen.BarabasiAlbert(200, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	b := graph.NewBuilder(a.NumNodes() + c.NumNodes() + 7)
	for _, e := range a.Edges() {
		b.AddEdgeSafe(e.U, e.V)
	}
	for _, e := range c.Edges() {
		b.AddEdgeSafe(e.U+graph.NodeID(a.NumNodes()), e.V+graph.NodeID(a.NumNodes()))
	}
	if levels := check("disconnected with isolated nodes", b.Build()); levels[2].Components < 2 {
		t.Fatalf("3-core has %d components, want the two graphs apart", levels[2].Components)
	}
	if levels := check("edgeless", graph.NewBuilder(5).Build()); len(levels) != 0 {
		t.Fatalf("edgeless graph has %d levels, want none", len(levels))
	}

	g, err := gen.BarabasiAlbert(800, 4, 31)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	mv := graph.NewMaskedView(g)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if rng.Float64() < 0.3 {
			mv.SetAlive(v, false)
		}
	}
	edges := g.Edges()
	for i := 0; i < len(edges)/5; i++ {
		e := edges[rng.Intn(len(edges))]
		mv.DropEdge(e.U, e.V)
	}
	masked := check("masked", mv)
	if rebuilt := check("rebuilt", graph.Materialize(mv)); !reflect.DeepEqual(masked, rebuilt) {
		t.Fatal("levels diverge between masked view and rebuilt copy")
	}
}
