package kernels_test

import (
	"math"
	"runtime"
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
// are 8, 16, 24 and 64. The inputs cover both step paths: the
// sparse-frontier scatter and, once the frontier's arcs pass an eighth
// of the graph's, the fused dense gather, whose plain block keeps only
// share rows, so Column re-gathers its distribution. Every step is
// checked, the hand-over step and the ones after it included, on a graph
// with isolated rows between live ones (which must stay +0.0), on a graph
// of 4096 rows, and on a grid whose one-source block hands over while
// its support still holds far fewer than half the rows.
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

// TestEquivalenceWalkBlockDistances checks the distances StepDistances
// folds against walk.TotalVariation of each source's walk.Distribution
// and the stationary distribution, bit for bit after every step, for
// the plain and the lazy walk: the sparse steps' fold, the hand-over
// step's and the fused dense steps'. The widths give row strides of 8
// and 24, which has an 8-column tail; the isolated rows of the second
// graph fold their +0.0.
func TestEquivalenceWalkBlockDistances(t *testing.T) {
	ba, err := gen.BarabasiAlbert(200, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"ba": ba, "isolated": spreadIsolated(t, ba, 20)}
	for name, g := range graphs {
		pi, err := g.StationaryDistribution()
		if err != nil {
			t.Fatal(err)
		}
		for _, lazy := range []bool{false, true} {
			for _, width := range []int{5, 17} {
				sources := make([]graph.NodeID, width)
				for j := range sources {
					sources[j] = graph.NodeID((j * 13) % g.NumNodes())
					for g.Degree(sources[j]) == 0 {
						sources[j]++
					}
				}
				wb, err := kernels.NewWalkBlock(g, sources, lazy)
				if err != nil {
					t.Fatal(err)
				}
				refs := make([]*walk.Distribution, len(sources))
				for j, s := range sources {
					refs[j], err = walk.NewDistribution(g, s, lazy)
					if err != nil {
						t.Fatal(err)
					}
				}
				dist := make([]float64, len(sources))
				for step := 0; step < 15; step++ {
					if err := wb.StepDistances(pi, dist); err != nil {
						t.Fatal(err)
					}
					for j := range refs {
						refs[j].Step()
						want, err := walk.TotalVariation(refs[j].Probabilities(), pi)
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(dist[j]) != math.Float64bits(want) {
							t.Fatalf("%s lazy=%v width=%d step=%d col=%d: got %x want %x",
								name, lazy, width, step, j, dist[j], want)
						}
					}
				}
				if !wb.Dense() {
					t.Fatalf("%s lazy=%v width=%d: block never reached the dense gather", name, lazy, width)
				}
			}
		}
	}
	g := graphs["ba"]
	wb, err := kernels.NewWalkBlock(g, []graph.NodeID{0}, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := wb.StepDistances(make([]float64, g.NumNodes()-1), make([]float64, 1)); err == nil {
		t.Error("short target: want error")
	}
	if err := wb.StepDistances(make([]float64, g.NumNodes()), make([]float64, 2)); err == nil {
		t.Error("distance buffer wider than the block: want error")
	}
}

// TestWalkBlockDenseStepAllocatesNothing checks that a dense step
// allocates nothing, with and without its distance fold, for the plain
// and the lazy walk, on whichever path this CPU runs: the fold's running
// sums live in the block.
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
	for _, lazy := range []bool{false, true} {
		wb, err := kernels.NewWalkBlock(g, sources, lazy)
		if err != nil {
			t.Fatal(err)
		}
		for !wb.Dense() {
			wb.Step()
		}
		dist := make([]float64, len(sources))
		allocs := testing.AllocsPerRun(20, func() {
			wb.Step()
			if err := wb.StepDistances(pi, dist); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("lazy=%v: a dense step and a folding dense step allocate %v times", lazy, allocs)
		}
	}
}

// TestWalkBlockPlainAllocationBound bounds what a plain block allocates
// from NewWalkBlock through 50 steps with their distances, past the
// hand-over, at its two n×stride buffers plus 64 bytes a node (its
// sparse lists and marks) and 64 KiB. A third n×stride buffer would add
// 8·16 = 128 bytes a node at this width and fail it.
func TestWalkBlockPlainAllocationBound(t *testing.T) {
	g, err := gen.BarabasiAlbert(4096, 4, 12)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := g.StationaryDistribution()
	if err != nil {
		t.Fatal(err)
	}
	sources := make([]graph.NodeID, kernels.DefaultBlockWidth)
	for j := range sources {
		sources[j] = graph.NodeID(j * 101)
	}
	dist := make([]float64, len(sources))
	n := uint64(g.NumNodes())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wb, err := kernels.NewWalkBlock(g, sources, false)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 50; step++ {
		if err := wb.StepDistances(pi, dist); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if !wb.Dense() {
		t.Fatal("block never reached the dense gather")
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d nodes, stride %d: %d bytes allocated", n, kernels.DefaultBlockWidth, got)
	if limit := 8*2*n*uint64(kernels.DefaultBlockWidth) + 64*n + 64<<10; got > limit {
		t.Fatalf("a plain block of width %d over %d nodes allocated %d bytes in 50 steps, more than %d", kernels.DefaultBlockWidth, n, got, limit)
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
