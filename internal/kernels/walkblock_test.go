package kernels_test

import (
	"math"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/kernels"
	"github.com/trustnet/trustnet/internal/walk"
)

// TestEquivalenceWalkBlockVsDistribution is the blocked kernel's core
// property: every column of a WalkBlock is bit-for-bit identical to an
// independent walk.Distribution from the same source, at every step, for
// both the plain and the lazy walk and at block widths whose row strides
// are 8, 16, 24 and 64. The
// inputs cover both step paths: the sparse-frontier scatter and, once the
// frontier's arcs pass an eighth of the graph's, the in-place dense
// gather — on a graph with isolated rows between live ones (which the
// gather must leave alone), on a graph of 4096 rows, and on a grid whose
// one-source block hands over while its support still holds far fewer
// than half the rows.
func TestEquivalenceWalkBlockVsDistribution(t *testing.T) {
	ba, err := gen.BarabasiAlbert(300, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := gen.Cycle(64) // bipartite: the plain walk oscillates, the lazy walk converges
	if err != nil {
		t.Fatal(err)
	}
	star, err := gen.Star(50)
	if err != nil {
		t.Fatal(err)
	}
	big, err := gen.BarabasiAlbert(4096, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid(20, 20)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"ba": ba, "cycle": cycle, "star": star,
		"isolated": spreadIsolated(t, ba, 20),
		"ba4096":   big,
		"grid":     grid,
	}
	// The inputs added for the dense gather must actually reach it.
	mustGoDense := map[string]bool{"isolated": true, "ba4096": true, "grid": true}
	// On the grid, a one-source block from corner node 0 hands over after
	// this many steps (plain, lazy). Its support then carries more than
	// 2m/8 = 190 of the 1,520 arcs in 56 and 55 of the 400 rows; more
	// than half the rows are in it only from step 19 (lazy), or not
	// within 20 steps (plain).
	gridFlip := map[bool]struct{ step, rows int }{false: {13, 56}, true: {9, 55}}

	for name, g := range graphs {
		for _, lazy := range []bool{false, true} {
			for _, width := range []int{1, 2, 5, 16, 17, 64} {
				sources := make([]graph.NodeID, width)
				for j := range sources {
					sources[j] = graph.NodeID((j * 7) % g.NumNodes())
					for g.Degree(sources[j]) == 0 {
						sources[j] = (sources[j] + 1) % graph.NodeID(g.NumNodes())
					}
				}
				wb, err := kernels.NewWalkBlock(g, sources, lazy)
				if err != nil {
					t.Fatalf("%s width=%d: %v", name, width, err)
				}
				refs := make([]*walk.Distribution, width)
				for j, s := range sources {
					refs[j], err = walk.NewDistribution(g, s, lazy)
					if err != nil {
						t.Fatal(err)
					}
				}
				var col []float64
				for step := 0; step < 20; step++ {
					wasDense := wb.Dense()
					wb.Step()
					for j := range refs {
						refs[j].Step()
						col = wb.Column(j, col)
						for v, want := range refs[j].Probabilities() {
							if got := col[v]; got != want {
								t.Fatalf("%s lazy=%v width=%d step=%d col=%d node=%d: got %x want %x",
									name, lazy, width, step, j, v, got, want)
							}
						}
					}
					if name == "grid" && width == 1 && wb.Dense() != wasDense {
						rows := 0
						for _, p := range refs[0].Probabilities() {
							if p != 0 {
								rows++
							}
						}
						if want := gridFlip[lazy]; step+1 != want.step || rows != want.rows {
							t.Fatalf("grid lazy=%v: dense after step %d with %d support rows, want step %d with %d",
								lazy, step+1, rows, want.step, want.rows)
						}
					}
				}
				if mustGoDense[name] && !wb.Dense() {
					t.Fatalf("%s lazy=%v width=%d: block never reached the dense gather", name, lazy, width)
				}
			}
		}
	}
}

// spreadIsolated renumbers g's nodes so that node 0, every (gap+1)-th
// node and the last node are isolated: old node v becomes v + v/gap + 1.
func spreadIsolated(t *testing.T, g *graph.Graph, gap int) *graph.Graph {
	t.Helper()
	id := func(v graph.NodeID) graph.NodeID { return v + v/graph.NodeID(gap) + 1 }
	var edges []graph.Edge
	for _, e := range g.Edges() {
		edges = append(edges, graph.Edge{U: id(e.U), V: id(e.V)})
	}
	out, err := graph.FromEdges(int(id(graph.NodeID(g.NumNodes()-1)))+2, edges)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEquivalenceWalkBlockDistances checks DistancesTo against the
// per-source walk.TotalVariation, bit for bit.
func TestEquivalenceWalkBlockDistances(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := g.StationaryDistribution()
	if err != nil {
		t.Fatal(err)
	}
	sources := []graph.NodeID{0, 3, 9, 14, 77}
	wb, err := kernels.NewWalkBlock(g, sources, false)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]*walk.Distribution, len(sources))
	for j, s := range sources {
		refs[j], err = walk.NewDistribution(g, s, false)
		if err != nil {
			t.Fatal(err)
		}
	}
	dist := make([]float64, len(sources))
	for step := 0; step < 15; step++ {
		wb.Step()
		if err := wb.DistancesTo(pi, dist); err != nil {
			t.Fatal(err)
		}
		for j := range refs {
			refs[j].Step()
			want, err := refs[j].DistanceTo(pi)
			if err != nil {
				t.Fatal(err)
			}
			if dist[j] != want {
				t.Fatalf("step=%d col=%d: got %x want %x", step, j, dist[j], want)
			}
		}
	}
	if math.IsNaN(dist[0]) {
		t.Fatal("distance went NaN")
	}
}

// TestWalkBlockDenseStepAllocatesNothing checks that a dense step and a
// distance fold allocate nothing, on whichever path this CPU runs: the
// fold's running sums live in the block.
func TestWalkBlockDenseStepAllocatesNothing(t *testing.T) {
	g, err := gen.BarabasiAlbert(500, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := g.StationaryDistribution()
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]graph.NodeID, kernels.DefaultBlockWidth+3)
	for j := range sources {
		sources[j] = graph.NodeID(j * 11)
	}
	wb, err := kernels.NewWalkBlock(g, sources, true)
	if err != nil {
		t.Fatal(err)
	}
	for !wb.Dense() {
		wb.Step()
	}
	dist := make([]float64, len(sources))
	allocs := testing.AllocsPerRun(20, func() {
		wb.Step()
		if err := wb.DistancesTo(pi, dist); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a dense step and a distance fold allocate %v times", allocs)
	}
}

// TestWalkBlockErrors covers the constructor contract.
func TestWalkBlockErrors(t *testing.T) {
	g, err := gen.Star(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kernels.NewWalkBlock(g, nil, false); err == nil {
		t.Error("empty source list: want error")
	}
	if _, err := kernels.NewWalkBlock(g, []graph.NodeID{99}, false); err == nil {
		t.Error("out-of-range source: want error")
	}
	empty := graph.NewBuilder(3).Build()
	if _, err := kernels.NewWalkBlock(empty, []graph.NodeID{0}, false); err == nil {
		t.Error("edgeless graph: want error")
	}
	b := graph.NewBuilder(4)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	withIsolated := b.Build()
	if _, err := kernels.NewWalkBlock(withIsolated, []graph.NodeID{2}, false); err == nil {
		t.Error("isolated source: want error")
	}
}
