package kernels_test

import (
	"fmt"
	"slices"
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

// namedGraph is a benchmark input.
type namedGraph struct {
	name string
	g    *graph.Graph
}

// largeGraphs builds the two 4·10⁴-node graph families of perfbench's
// large workload, at seed 1: a BA graph (attach 8), whose BFSs end after
// 6 levels, and a clustered-PA graph (200 communities of 200, attach 8,
// 4 bridges), whose BFSs run for about 440.
func largeGraphs(b *testing.B) []namedGraph {
	b.Helper()
	ba, err := gen.BarabasiAlbert(40000, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	clustered, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{Communities: 200, CommunitySize: 200, Attach: 8, Bridges: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return []namedGraph{{"ba40000", ba}, {"clustered40000", clustered}}
}

// sampled draws k seeded sources from g, as the measurements do.
func sampled(b *testing.B, g *graph.Graph, k int, nonIsolated bool) []graph.NodeID {
	b.Helper()
	sources, err := graph.SampleNodes(g, k, 1, nonIsolated)
	if err != nil {
		b.Fatal(err)
	}
	return sources
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
	for _, bg := range []namedGraph{
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

// BenchmarkWalkBlockWalk measures what the mixing measurement does with
// one block on perfbench large's two graphs: a fresh block of
// DefaultBlockWidth sampled sources walks 20 plain steps, folding its
// distances to the stationary distribution after each. Unlike
// BenchmarkWalkBlockStep it includes the sparse steps and the hand-over
// to the dense gather.
func BenchmarkWalkBlockWalk(b *testing.B) {
	for _, bg := range largeGraphs(b) {
		g := bg.g
		pi, err := g.StationaryDistribution()
		if err != nil {
			b.Fatal(err)
		}
		sources := sampled(b, g, kernels.DefaultBlockWidth, true)
		dist := make([]float64, len(sources))
		b.Run(bg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				wb, err := kernels.NewWalkBlock(g, sources, false)
				if err != nil {
					b.Fatal(err)
				}
				for step := 0; step < 20; step++ {
					wb.Step()
					if err := wb.DistancesTo(pi, dist); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
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
// BFS runs over the same sources: on a 2000-node BA graph, and on
// perfbench large's two graphs with 64 sampled sources, where the BA
// batch stays 64 lanes wide to the end and the clustered one hands its
// lanes over to lone scans. The epochs10000 rows run the 1,024 sources
// of perfbench epochs (its clustered 50×200 graph, attach 8, 4 bridges,
// seed 97) as 16 batches, cut in sampled order and in node-ID order;
// alone/op counts the batches that handed over.
func BenchmarkBFSBatchRun(b *testing.B) {
	small := benchGraph(b)
	sources := make([]graph.NodeID, kernels.BFSBatchWidth)
	for j := range sources {
		sources[j] = graph.NodeID((j * 13) % small.NumNodes())
	}
	benchBFS(b, "ba2000", small, sources)
	for _, bg := range largeGraphs(b) {
		benchBFS(b, bg.name, bg.g, sampled(b, bg.g, kernels.BFSBatchWidth, false))
	}

	epochs, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{Communities: 50, CommunitySize: 200, Attach: 8, Bridges: 4, Seed: 97})
	if err != nil {
		b.Fatal(err)
	}
	// The seed is the one perfbench epochs samples its sources with.
	inSample, err := graph.SampleNodes(epochs, 1024, 8513542685296429273, false)
	if err != nil {
		b.Fatal(err)
	}
	inID := slices.Clone(inSample)
	slices.Sort(inID)
	benchBatches(b, "epochs10000/sampled1024", epochs, inSample)
	benchBatches(b, "epochs10000/sorted1024", epochs, inID)
}

// benchBatches runs sources through one BFSBatch, BFSBatchWidth at a
// time in the order given.
func benchBatches(b *testing.B, name string, g *graph.Graph, sources []graph.NodeID) {
	b.Run(name, func(b *testing.B) {
		batch := kernels.NewBFSBatch(g)
		alone := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for start := 0; start < len(sources); start += kernels.BFSBatchWidth {
				if _, err := batch.Run(sources[start:min(start+kernels.BFSBatchWidth, len(sources))]); err != nil {
					b.Fatal(err)
				}
				if batch.LanesAlone() {
					alone++
				}
			}
		}
		b.ReportMetric(float64(alone)/float64(b.N), "alone/op")
	})
}

// benchBFS runs one batch over sources and, as the baseline, one scalar
// BFS per source.
func benchBFS(b *testing.B, name string, g *graph.Graph, sources []graph.NodeID) {
	b.Run(name+"/batch64", func(b *testing.B) {
		batch := kernels.NewBFSBatch(g)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := batch.Run(sources); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(name+"/scalar64", func(b *testing.B) {
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
