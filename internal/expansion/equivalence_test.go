package expansion

import (
	"context"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/parallel"
)

// TestEquivalenceExpansionWorkerCounts is the determinism contract for
// the expansion measurement: a bit-for-bit identical Result at every
// worker count (the per-source level sequences are folded into the keyed
// summaries sequentially in source order).
func TestEquivalenceExpansionWorkerCounts(t *testing.T) {
	g, err := gen.BarabasiAlbert(500, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := SampledSources(g, 120, 5)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Result {
		r, err := Measure(context.Background(), g, Config{Sources: srcs, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: Result differs from workers=1 (including float bit patterns)", workers)
		}
	}
}

// TestEquivalenceBFSBatchWidths is the bit-parallel kernel contract:
// Measure returns a Result bit-for-bit identical to the scalar per-core
// oracle at core counts that leave every kind of final batch (1, 63, 64,
// 65 and 130 cores against 64-lane batches, plus every node on the small
// graphs) and at any worker count. The graphs sit on both sides of the
// 4096-node cutoff the kernel used to need: random, cycle, star, a
// disconnected graph with isolated cores, and mmap-backed inputs.
func TestEquivalenceBFSBatchWidths(t *testing.T) {
	ba, baBig := mustBA(t, 400, 4, 11), mustBA(t, bigNodes, 3, 12)
	cycleBig, err := gen.Cycle(bigNodes)
	if err != nil {
		t.Fatal(err)
	}
	star, err := gen.Star(90)
	if err != nil {
		t.Fatal(err)
	}
	starBig, err := gen.Star(bigNodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    graph.View
	}{
		{"ba", ba}, {"ba-big", baBig}, {"cycle-big", cycleBig},
		{"star", star}, {"star-big", starBig},
		{"disconnected", disconnectedGraph(t, 40)}, {"disconnected-big", disconnectedGraph(t, bigNodes)},
		{"ba-mapped", mustMapped(t, ba)}, {"ba-big-mapped", mustMapped(t, baBig)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, cores := range []int{1, 63, 64, 65, 130} {
				srcs, err := SampledSources(tc.g, cores, 5)
				if err != nil {
					t.Fatal(err)
				}
				checkExpansionOracle(t, tc.g, Config{Sources: srcs})
			}
			if tc.g.NumNodes() < bigNodes {
				checkExpansionOracle(t, tc.g, Config{})
			}
		})
	}
}

// TestEquivalenceExpansionSourceOrder covers the node-ID order Measure
// cuts its batches in: on a clustered graph deep enough for batches to
// hand their lanes over, 150 sampled cores and a duplicate, in sampled
// and in reversed order, must equal the scalar oracle at every worker
// count, and so must a run resumed from a checkpoint holding every
// second core's levels, whose remaining cores are cut into batches in
// node-ID order.
func TestEquivalenceExpansionSourceOrder(t *testing.T) {
	g := mustClusteredPA(t, 30, 20, 2, 1, 3)
	srcs, err := SampledSources(g, 150, 9)
	if err != nil {
		t.Fatal(err)
	}
	srcs = append(srcs, srcs[17])
	checkExpansionOracle(t, g, Config{Sources: srcs})
	reversed := slices.Clone(srcs)
	slices.Reverse(reversed)
	checkExpansionOracle(t, g, Config{Sources: reversed})

	want := oracleExpansion(t, g, Config{Sources: srcs, Workers: 1})
	for _, workers := range []int{1, 3} {
		got, err := Measure(context.Background(), g, Config{Sources: srcs, Workers: workers, Resume: partialCheckpoint(want, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: resumed run differs from the oracle", workers)
		}
	}
}

// bigNodes sizes the test graphs above the 4096-node cutoff below which
// the measurement used to run the scalar BFS loop.
const bigNodes = 4200

// disconnectedGraph builds an n-node graph (n >= 40) of a star component,
// a path component and three isolated nodes.
func disconnectedGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	half := graph.NodeID(n / 2)
	for v := graph.NodeID(1); v < half-2; v++ {
		if err := b.AddEdge(0, v); err != nil { // hub component
			t.Fatal(err)
		}
	}
	for v := half; v < graph.NodeID(n-2); v++ {
		if err := b.AddEdge(v, v+1); err != nil { // path component; half-2, half-1, n-1 isolated
			t.Fatal(err)
		}
	}
	return b.Build()
}

// mustMapped writes g as a TNG2 file and maps it back, so the test
// measures the mmap-backed view.
func mustMapped(t *testing.T, g *graph.Graph) *graph.Mapped {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.tng2")
	if err := graph.SaveCSR(path, g); err != nil {
		t.Fatal(err)
	}
	mg, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mg.Close() })
	return mg
}

// oracleExpansion is the reference Measure: one scalar BFS per core, one
// core per task at cfg.Workers, with scratch drawn from a graph.BFSPool
// — the loop the bit-parallel kernel replaced. Measure folds the level
// sequences as a fully resumed checkpoint, so the kernel under test and
// the oracle share only the source-order fold.
func oracleExpansion(t *testing.T, g graph.View, cfg Config) *Result {
	t.Helper()
	sources := cfg.Sources
	if sources == nil {
		sources = make([]graph.NodeID, g.NumNodes())
		for v := range sources {
			sources[v] = graph.NodeID(v)
		}
	}
	pool := graph.NewBFSPool(g)
	levels := make([][]int64, len(sources))
	if err := parallel.ForEach(context.Background(), cfg.Workers, len(sources), func(_, i int) error {
		bfs := pool.Get()
		defer pool.Put(bfs)
		r, err := bfs.Run(sources[i])
		if err != nil {
			return err
		}
		// r aliases pooled scratch (see BFSWorker.Run); keep a copy.
		levels[i] = append([]int64(nil), r.LevelSizes...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = &Checkpoint{Sources: sources, Levels: levels}
	r, err := Measure(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.levels, levels) {
		t.Fatal("oracle: the fold did not keep the resumed levels")
	}
	return r
}

// checkExpansionOracle requires Measure on v to equal the scalar oracle
// bit for bit at workers 1, 3 and 8.
func checkExpansionOracle(t *testing.T, v graph.View, cfg Config) {
	t.Helper()
	want := oracleExpansion(t, v, cfg)
	for _, workers := range []int{1, 3, 8} {
		cfg.Workers = workers
		got, err := Measure(context.Background(), v, cfg)
		if err != nil {
			t.Fatalf("cores=%d workers=%d: %v", want.Sources, workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("cores=%d workers=%d: differs from the scalar oracle", want.Sources, workers)
		}
	}
}

// TestEquivalenceExpansionRace drives the pooled-scratch fan-out under
// the race detector: overlapping Measure calls sharing nothing but the
// graph, each with more workers than GOMAXPROCS.
func TestEquivalenceExpansionRace(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Measure(context.Background(), g, Config{Workers: 16}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func mustBA(t *testing.T, n, attach int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(n, attach, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustClusteredPA(t *testing.T, comms, size, attach, bridges int, seed int64) *graph.Graph {
	t.Helper()
	g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities: comms, CommunitySize: size, Attach: attach, Bridges: bridges, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}
