package expansion

import (
	"context"
	"math"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

func measureAll(t *testing.T, g *graph.Graph) *Result {
	t.Helper()
	r, err := Measure(context.Background(), g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMeasureCompleteGraph(t *testing.T) {
	g, err := gen.Complete(10)
	if err != nil {
		t.Fatal(err)
	}
	r := measureAll(t, g)
	if r.Sources != 10 {
		t.Errorf("Sources = %d, want 10", r.Sources)
	}
	if r.MaxEccentricity != 1 {
		t.Errorf("MaxEccentricity = %d, want 1", r.MaxEccentricity)
	}
	// Every BFS has levels [1, 9]: envelope size 1 with 9 neighbors.
	s, ok := r.NeighborsBySetSize.Get(1)
	if !ok {
		t.Fatal("no envelope of size 1 recorded")
	}
	if s.Count() != 10 || s.Min() != 9 || s.Max() != 9 {
		t.Errorf("envelope-1 stats = %+v, want 10 observations of 9", s)
	}
	f, ok := r.FactorBySetSize.Get(1)
	if !ok || math.Abs(f.Mean()-9) > 1e-12 {
		t.Errorf("alpha at size 1 = %v, want 9", f.Mean())
	}
}

func TestMeasureCycle(t *testing.T) {
	g, err := gen.Cycle(9)
	if err != nil {
		t.Fatal(err)
	}
	r := measureAll(t, g)
	// Levels from any source on C9: [1,2,2,2,2]; envelopes 1,3,5,7 with
	// expansions 2,2,2,2.
	for _, size := range []int64{1, 3, 5, 7} {
		s, ok := r.NeighborsBySetSize.Get(size)
		if !ok {
			t.Fatalf("no envelope of size %d", size)
		}
		if s.Min() != 2 || s.Max() != 2 || s.Count() != 9 {
			t.Errorf("envelope %d stats = %+v, want exactly 2 neighbors ×9", size, s)
		}
		f, _ := r.FactorBySetSize.Get(size)
		want := 2 / float64(size)
		if math.Abs(f.Mean()-want) > 1e-12 {
			t.Errorf("alpha at %d = %v, want %v", size, f.Mean(), want)
		}
	}
	if r.MaxEccentricity != 4 {
		t.Errorf("MaxEccentricity = %d, want 4", r.MaxEccentricity)
	}
}

func TestMeasureStarAsymmetry(t *testing.T) {
	g, err := gen.Star(6)
	if err != nil {
		t.Fatal(err)
	}
	r := measureAll(t, g)
	// From hub: envelope 1 -> 5 neighbors. From each leaf: envelope 1 -> 1
	// neighbor, envelope 2 -> 4 neighbors.
	s, ok := r.NeighborsBySetSize.Get(1)
	if !ok || s.Count() != 6 {
		t.Fatalf("envelope-1 stats = %+v", s)
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("envelope-1 min/max = %v/%v, want 1/5", s.Min(), s.Max())
	}
	s2, ok := r.NeighborsBySetSize.Get(2)
	if !ok || s2.Count() != 5 || s2.Mean() != 4 {
		t.Errorf("envelope-2 stats = %+v, want 5 observations of 4", s2)
	}
}

func TestMeasureExplicitSources(t *testing.T) {
	g, err := gen.Cycle(12)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Measure(context.Background(), g, Config{Sources: []graph.NodeID{0, 3}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sources != 2 {
		t.Errorf("Sources = %d, want 2", r.Sources)
	}
	s, _ := r.NeighborsBySetSize.Get(1)
	if s.Count() != 2 {
		t.Errorf("envelope-1 count = %d, want 2", s.Count())
	}
}

func TestMeasureErrors(t *testing.T) {
	var empty graph.Graph
	if _, err := Measure(context.Background(), &empty, Config{}); err == nil {
		t.Error("Measure(empty): want error")
	}
	g, err := gen.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Measure(context.Background(), g, Config{Sources: []graph.NodeID{99}}); err == nil {
		t.Error("Measure(bad source): want error")
	}
}

func TestMeasureCancellation(t *testing.T) {
	g, err := gen.BarabasiAlbert(2000, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Measure(ctx, g, Config{Workers: 1}); err == nil {
		t.Error("Measure(cancelled): want error")
	}
}

func TestVertexExpansionHypercubeVsClustered(t *testing.T) {
	// The hypercube is a good expander; the clustered community graph is
	// not. Their minimum connected-set expansion factors should reflect it.
	hc, err := gen.Hypercube(8) // 256 nodes, degree 8
	if err != nil {
		t.Fatal(err)
	}
	clustered, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities: 4, CommunitySize: 64, Attach: 4, Bridges: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rh := measureAll(t, hc)
	rc := measureAll(t, clustered)
	ah, ok := rh.VertexExpansion(hc.NumNodes())
	if !ok {
		t.Fatal("no expansion measured on hypercube")
	}
	ac, ok := rc.VertexExpansion(clustered.NumNodes())
	if !ok {
		t.Fatal("no expansion measured on clustered graph")
	}
	if ah <= ac {
		t.Errorf("expander alpha %v <= clustered alpha %v, want expander to dominate", ah, ac)
	}
	if ac > 0.2 {
		t.Errorf("clustered graph min alpha = %v, expected bottleneck < 0.2", ac)
	}
}

func TestVertexExpansionNoSmallSets(t *testing.T) {
	// With only two nodes, the only envelope has size 1 = n/2, so a
	// measurement exists; check the boundary behaves.
	g, err := gen.Path(2)
	if err != nil {
		t.Fatal(err)
	}
	r := measureAll(t, g)
	a, ok := r.VertexExpansion(2)
	if !ok || a != 1 {
		t.Errorf("VertexExpansion(P2) = %v,%v, want 1,true", a, ok)
	}
}

func TestSampledSources(t *testing.T) {
	g, err := gen.Cycle(100)
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := SampledSources(g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 10 {
		t.Fatalf("len = %d, want 10", len(srcs))
	}
	seen := map[graph.NodeID]bool{}
	for _, s := range srcs {
		if !g.Valid(s) {
			t.Errorf("invalid source %d", s)
		}
		if seen[s] {
			t.Errorf("duplicate source %d", s)
		}
		seen[s] = true
	}
	// Oversampling clamps to n.
	all, err := SampledSources(g, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 100 {
		t.Errorf("oversample len = %d, want 100", len(all))
	}
	if _, err := SampledSources(g, 0, 1); err == nil {
		t.Error("SampledSources(0): want error")
	}
	var empty graph.Graph
	if _, err := SampledSources(&empty, 5, 1); err == nil {
		t.Error("SampledSources(empty): want error")
	}
}

func TestMeasureWorkerCountsAgree(t *testing.T) {
	g, err := gen.BarabasiAlbert(300, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Measure(context.Background(), g, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Measure(context.Background(), g, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if r1.MaxEccentricity != r8.MaxEccentricity {
		t.Errorf("eccentricity differs by worker count: %d vs %d", r1.MaxEccentricity, r8.MaxEccentricity)
	}
	k1, k8 := r1.NeighborsBySetSize.Keys(), r8.NeighborsBySetSize.Keys()
	if len(k1) != len(k8) {
		t.Fatalf("key counts differ: %d vs %d", len(k1), len(k8))
	}
	for i := range k1 {
		if k1[i] != k8[i] {
			t.Fatalf("keys differ at %d: %d vs %d", i, k1[i], k8[i])
		}
		s1, _ := r1.NeighborsBySetSize.Get(k1[i])
		s8, _ := r8.NeighborsBySetSize.Get(k8[i])
		if s1.Count() != s8.Count() || math.Abs(s1.Mean()-s8.Mean()) > 1e-9 {
			t.Fatalf("summaries differ at size %d: %+v vs %+v", k1[i], s1, s8)
		}
	}
}

// TestMeasureCountsLaneHandovers: on perfbench large's clustered graph,
// whose BFSs run for about 440 levels, the one 64-core batch hands its
// lanes over to lone scans and expansion.bfs.lane_handovers counts it; on
// the BA graph of the same size, whose BFSs end after 6 levels, it stays
// batched.
func TestMeasureCountsLaneHandovers(t *testing.T) {
	ba, err := gen.BarabasiAlbert(40000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	clustered, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{Communities: 200, CommunitySize: 200, Attach: 8, Bridges: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		want int64
	}{{"ba", ba, 0}, {"clustered", clustered, 1}} {
		sources, err := SampledSources(tc.g, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		before := obsLaneHandovers.Value()
		if _, err := Measure(context.Background(), tc.g, Config{Sources: sources}); err != nil {
			t.Fatal(err)
		}
		if got := obsLaneHandovers.Value() - before; got != tc.want {
			t.Errorf("%s: %d lane hand-overs, want %d", tc.name, got, tc.want)
		}
	}
}
