package centrality

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

func exactBetweenness(t *testing.T, g *graph.Graph) []float64 {
	t.Helper()
	bc, err := Betweenness(context.Background(), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return bc
}

func TestBetweennessPath(t *testing.T) {
	g, err := gen.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	bc := exactBetweenness(t, g)
	want := []float64{0, 3, 4, 3, 0}
	for v := range want {
		if math.Abs(bc[v]-want[v]) > 1e-9 {
			t.Errorf("bc[%d] = %v, want %v", v, bc[v], want[v])
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	g, err := gen.Star(8) // hub 0, 7 leaves
	if err != nil {
		t.Fatal(err)
	}
	bc := exactBetweenness(t, g)
	if want := 21.0; math.Abs(bc[0]-want) > 1e-9 { // C(7,2)
		t.Errorf("hub bc = %v, want %v", bc[0], want)
	}
	for v := 1; v < 8; v++ {
		if bc[v] != 0 {
			t.Errorf("leaf bc[%d] = %v, want 0", v, bc[v])
		}
	}
}

func TestBetweennessCliqueAndCycle(t *testing.T) {
	g, err := gen.Complete(6)
	if err != nil {
		t.Fatal(err)
	}
	for v, b := range exactBetweenness(t, g) {
		if b != 0 {
			t.Errorf("K6 bc[%d] = %v, want 0", v, b)
		}
	}
	g, err = gen.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	for v, b := range exactBetweenness(t, g) {
		if math.Abs(b-1) > 1e-9 {
			t.Errorf("C5 bc[%d] = %v, want 1", v, b)
		}
	}
}

func TestBetweennessSplitShortestPaths(t *testing.T) {
	// C4: each distance-2 pair has two shortest paths, so each midpoint
	// gets credit 1/2 per pair; each node is midpoint of 1 pair: bc = 0.5.
	g, err := gen.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	for v, b := range exactBetweenness(t, g) {
		if math.Abs(b-0.5) > 1e-9 {
			t.Errorf("C4 bc[%d] = %v, want 0.5", v, b)
		}
	}
}

// naiveBetweenness computes betweenness by explicit all-pairs shortest
// path counting, for cross-validation.
func naiveBetweenness(g *graph.Graph) []float64 {
	n := g.NumNodes()
	bc := make([]float64, n)
	for s := 0; s < n; s++ {
		// BFS with path counts.
		dist := make([]int, n)
		sigma := make([]float64, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		sigma[s] = 1
		queue := []graph.NodeID{graph.NodeID(s)}
		var order []graph.NodeID
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, u := range g.Neighbors(v) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
				if dist[u] == dist[v]+1 {
					sigma[u] += sigma[v]
				}
			}
		}
		delta := make([]float64, n)
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, v := range g.Neighbors(w) {
				if dist[v] == dist[w]-1 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			if int(w) != s {
				bc[w] += delta[w]
			}
		}
	}
	for v := range bc {
		bc[v] /= 2
	}
	return bc
}

func TestBetweennessMatchesNaiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(25)
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdgeSafe(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		}
		g := b.Build()
		got, err := Betweenness(context.Background(), g, Config{Workers: 1 + rng.Intn(4)})
		if err != nil {
			return false
		}
		want := naiveBetweenness(g)
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBetweennessSampledApproximates(t *testing.T) {
	g, err := gen.BarabasiAlbert(400, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactBetweenness(t, g)
	approx, err := Betweenness(context.Background(), g, Config{Pivots: 120})
	if err != nil {
		t.Fatal(err)
	}
	// The two rankings should share most of the top-10.
	topExact := TopK(exact, 10)
	topApprox := TopK(approx, 10)
	inExact := map[graph.NodeID]bool{}
	for _, v := range topExact {
		inExact[v] = true
	}
	overlap := 0
	for _, v := range topApprox {
		if inExact[v] {
			overlap++
		}
	}
	if overlap < 6 {
		t.Errorf("top-10 overlap = %d, want >= 6", overlap)
	}
	// Totals should agree within a modest factor.
	var se, sa float64
	for v := range exact {
		se += exact[v]
		sa += approx[v]
	}
	if sa < se/2 || sa > se*2 {
		t.Errorf("sampled total %v vs exact %v: off by more than 2x", sa, se)
	}
}

func TestBetweennessErrors(t *testing.T) {
	var empty graph.Graph
	if _, err := Betweenness(context.Background(), &empty, Config{}); err == nil {
		t.Error("Betweenness(empty): want error")
	}
	g, err := gen.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Betweenness(context.Background(), g, Config{Pivots: -1}); err == nil {
		t.Error("Betweenness(pivots<0): want error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	big, err := gen.BarabasiAlbert(500, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Betweenness(ctx, big, Config{Workers: 1}); err == nil {
		t.Error("Betweenness(cancelled): want error")
	}
}

// TestForEachBlockCancelsMidBlock cancels the context from inside a
// block's first source: no further source may run, no partial may be
// merged, and the cancellation must come back as the error.
func TestForEachBlockCancelsMidBlock(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	err := forEachBlock(ctx, 1, 3*blockSources, func(_, _ int) {
		ran++
		cancel()
	}, func(int) { t.Error("merged a cancelled block") })
	if !errors.Is(err, context.Canceled) || ran != 1 {
		t.Fatalf("ran %d sources and returned %v, want 1 and context.Canceled", ran, err)
	}
}

func TestClosenessPath(t *testing.T) {
	g, err := gen.Path(5)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := Closeness(context.Background(), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Node 2: distances 2,1,1,2 => 4/6; full reach => *1.
	if math.Abs(cc[2]-4.0/6) > 1e-9 {
		t.Errorf("cc[2] = %v, want %v", cc[2], 4.0/6)
	}
	// Node 0: distances 1,2,3,4 => 4/10.
	if math.Abs(cc[0]-0.4) > 1e-9 {
		t.Errorf("cc[0] = %v, want 0.4", cc[0])
	}
	if cc[2] <= cc[0] {
		t.Error("center should have higher closeness than endpoint")
	}
}

func TestClosenessDisconnected(t *testing.T) {
	b := graph.NewBuilder(5)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	g := b.Build() // node 4 isolated
	cc, err := Closeness(context.Background(), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if cc[4] != 0 {
		t.Errorf("isolated closeness = %v, want 0", cc[4])
	}
	// Component {0,1}: reach 1, sum 1 => 1 * (1/4) = 0.25.
	if math.Abs(cc[0]-0.25) > 1e-9 {
		t.Errorf("cc[0] = %v, want 0.25", cc[0])
	}
	var empty graph.Graph
	if _, err := Closeness(context.Background(), &empty, Config{}); err == nil {
		t.Error("Closeness(empty): want error")
	}
}

func TestClosenessCancelled(t *testing.T) {
	g, err := gen.BarabasiAlbert(400, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Closeness(ctx, g, Config{Workers: 1}); err == nil {
		t.Error("Closeness(cancelled): want error")
	}
}

func TestTopK(t *testing.T) {
	vals := []float64{3, 9, 1, 9, 5}
	top := TopK(vals, 3)
	want := []graph.NodeID{1, 3, 4}
	for i := range want {
		if top[i] != want[i] {
			t.Errorf("TopK[%d] = %d, want %d", i, top[i], want[i])
		}
	}
	if got := TopK(vals, 99); len(got) != 5 {
		t.Errorf("TopK(k>n) len = %d, want 5", len(got))
	}
	if got := TopK(nil, 3); len(got) != 0 {
		t.Errorf("TopK(nil) len = %d", len(got))
	}
}

func TestHighDegreeNodesCentralInBA(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	bc := exactBetweenness(t, g)
	top := TopK(bc, 5)
	// The top-betweenness nodes in a BA graph are its hubs: all should
	// have degree far above the attachment parameter.
	for _, v := range top {
		if g.Degree(v) < 10 {
			t.Errorf("top-betweenness node %d has degree %d, expected a hub", v, g.Degree(v))
		}
	}
}

// TestEquivalenceBetweennessWorkerCounts requires node and edge
// betweenness to be bit-identical at any worker count, exact and
// pivot-sampled: the float sums must not depend on which worker took
// which source.
func TestEquivalenceBetweennessWorkerCounts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, attach int
		pivots    int
	}{
		{"exact", 300, 3, 0},
		{"sampled", 1000, 4, 120},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, err := gen.BarabasiAlbert(tc.n, tc.attach, 7)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			var nodes0 []float64
			var edges0 map[graph.Edge]float64
			for _, workers := range []int{1, 2, 3, 7} {
				cfg := Config{Pivots: tc.pivots, Workers: workers}
				nodes, err := Betweenness(ctx, g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				edges, err := EdgeBetweenness(ctx, g, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if workers == 1 {
					nodes0, edges0 = nodes, edges
					continue
				}
				for v := range nodes0 {
					if math.Float64bits(nodes[v]) != math.Float64bits(nodes0[v]) {
						t.Fatalf("workers=%d: node %d scores %v, %v at one worker", workers, v, nodes[v], nodes0[v])
					}
				}
				if len(edges) != len(edges0) {
					t.Fatalf("workers=%d: %d edges scored, %d at one worker", workers, len(edges), len(edges0))
				}
				for e, want := range edges0 {
					if got := edges[e]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("workers=%d: edge %v scores %v, %v at one worker", workers, e, got, want)
					}
				}
			}
		})
	}
}
