package kernels_test

import (
	"fmt"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/kernels"
	"github.com/trustnet/trustnet/internal/walk"
)

func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	return benchBA(b, 2000, 8)
}

func benchBA(b *testing.B, n, attach int) *graph.Graph {
	b.Helper()
	g, err := gen.BarabasiAlbert(n, attach, 42)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkWalkBlockStep measures one blocked propagation step per graph,
// walk and width; width1 is the per-source cost the block amortizes
// away. The plain walk is the one the mixing measurement runs; the lazy
// walk adds the self term to every row. The 4·10⁴-node graph is the
// size of perfbench's large workload, with an n×16 working set (5 MB)
// above L2. Steps run in the dense regime the measurement spends nearly
// all of its steps in: the block is stepped until its frontier saturates
// before the timer starts.
func BenchmarkWalkBlockStep(b *testing.B) {
	for _, bg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ba2000", benchGraph(b)},
		{"ba40000", benchBA(b, 40000, 8)},
	} {
		g := bg.g
		for _, lazy := range []bool{false, true} {
			walkName := "plain"
			if lazy {
				walkName = "lazy"
			}
			for _, width := range []int{1, 5, kernels.DefaultBlockWidth, kernels.BFSBatchWidth} {
				sources := make([]graph.NodeID, width)
				for j := range sources {
					sources[j] = graph.NodeID((j * 17) % g.NumNodes())
				}
				b.Run(fmt.Sprintf("%s/%s/width%d", bg.name, walkName, width), func(b *testing.B) {
					wb, err := kernels.NewWalkBlock(g, sources, lazy)
					if err != nil {
						b.Fatal(err)
					}
					for !wb.Dense() {
						wb.Step()
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						wb.Step()
					}
				})
			}
		}
	}
}

// BenchmarkWalkDistributionStep is the scalar baseline WalkBlock replaces:
// one dense per-source step.
func BenchmarkWalkDistributionStep(b *testing.B) {
	g := benchGraph(b)
	d, err := walk.NewDistribution(g, 0, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Step()
	}
}

// BenchmarkBFSBatchRun measures a full 64-lane batch against 64 scalar
// pooled BFS runs over the same sources.
func BenchmarkBFSBatchRun(b *testing.B) {
	g := benchGraph(b)
	sources := make([]graph.NodeID, kernels.BFSBatchWidth)
	for j := range sources {
		sources[j] = graph.NodeID((j * 13) % g.NumNodes())
	}
	b.Run("batch64", func(b *testing.B) {
		batch := kernels.NewBFSBatch(g)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := batch.Run(sources); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar64", func(b *testing.B) {
		w := graph.NewBFSWorker(g)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range sources {
				if _, err := w.Run(s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
