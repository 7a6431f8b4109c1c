package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBFSPath(t *testing.T) {
	g := pathGraph(t, 5)
	r, err := BFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 5; v++ {
		if int(r.Dist[v]) != v {
			t.Errorf("Dist[%d] = %d, want %d", v, r.Dist[v], v)
		}
	}
	if r.Eccentricity() != 4 {
		t.Errorf("Eccentricity = %d, want 4", r.Eccentricity())
	}
	if r.Reached != 5 {
		t.Errorf("Reached = %d, want 5", r.Reached)
	}
	for i, c := range r.LevelSizes {
		if c != 1 {
			t.Errorf("LevelSizes[%d] = %d, want 1", i, c)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := NewBuilder(4)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	r, err := BFS(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reached != 2 {
		t.Errorf("Reached = %d, want 2", r.Reached)
	}
	if r.Dist[2] != -1 || r.Dist[3] != -1 {
		t.Errorf("unreachable nodes have Dist %d,%d, want -1,-1", r.Dist[2], r.Dist[3])
	}
}

func TestBFSInvalidSource(t *testing.T) {
	g := pathGraph(t, 3)
	if _, err := BFS(g, 7); err == nil {
		t.Error("BFS with out-of-range source: want error")
	}
	if _, err := BFS(g, -1); err == nil {
		t.Error("BFS with negative source: want error")
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	for _, e := range []Edge{{0, 1}, {1, 2}, {3, 4}} {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build() // components: {0,1,2}, {3,4}, {5}, {6}
	labels, sizes := ConnectedComponents(g)
	if len(sizes) != 4 {
		t.Fatalf("components = %d, want 4", len(sizes))
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("nodes 0,1,2 not in same component")
	}
	if labels[3] != labels[4] {
		t.Error("nodes 3,4 not in same component")
	}
	if labels[5] == labels[6] {
		t.Error("isolated nodes 5,6 share a component")
	}
	if NumComponents(g) != 4 {
		t.Errorf("NumComponents = %d, want 4", NumComponents(g))
	}
	if IsConnected(g) {
		t.Error("IsConnected = true for disconnected graph")
	}
}

func TestLargestComponent(t *testing.T) {
	b := NewBuilder(8)
	// Component A: 0-1-2-3 (4 nodes), component B: 4-5 (2 nodes), isolated 6,7.
	for _, e := range []Edge{{0, 1}, {1, 2}, {2, 3}, {4, 5}} {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	sub, ids := LargestComponent(g)
	if sub.NumNodes() != 4 {
		t.Fatalf("largest component has %d nodes, want 4", sub.NumNodes())
	}
	if sub.NumEdges() != 3 {
		t.Errorf("largest component has %d edges, want 3", sub.NumEdges())
	}
	want := []NodeID{0, 1, 2, 3}
	for i, v := range ids {
		if v != want[i] {
			t.Errorf("ids[%d] = %d, want %d", i, v, want[i])
		}
	}

	sub, ids = LargestComponent(NewBuilder(0).Build())
	if sub.NumNodes() != 0 || sub.NumEdges() != 0 || len(ids) != 0 {
		t.Errorf("largest component of the empty graph: %d nodes, %d edges, ids %v; want all empty", sub.NumNodes(), sub.NumEdges(), ids)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := cliqueGraph(t, 5)
	sub := InducedSubgraph(g, []NodeID{1, 3, 4})
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Errorf("induced K3 = %v, want n=3 m=3", sub)
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path5", pathGraph(t, 5), 4},
		{"clique6", cliqueGraph(t, 6), 1},
		{"single", NewBuilder(1).Build(), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Diameter(tt.g)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Diameter = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestDiameterErrors(t *testing.T) {
	var empty Graph
	if _, err := Diameter(&empty); err == nil {
		t.Error("Diameter(empty): want error")
	}
	b := NewBuilder(4)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := Diameter(b.Build()); err == nil {
		t.Error("Diameter(disconnected): want error")
	}
}

func TestEstimateDiameterLowerBoundsExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		b := NewBuilder(n)
		// Random connected graph: a random spanning tree plus extras.
		for v := 1; v < n; v++ {
			b.AddEdgeSafe(NodeID(v), NodeID(rng.Intn(v)))
		}
		for i := 0; i < n/2; i++ {
			b.AddEdgeSafe(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		exact, err := Diameter(g)
		if err != nil {
			return false
		}
		est, err := EstimateDiameter(g, 4)
		if err != nil {
			return false
		}
		return est <= exact && est >= (exact+1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// Triangle with a pendant: nodes 0,1,2 triangle; 3 attached to 0.
	b := NewBuilder(4)
	for _, e := range []Edge{{0, 1}, {1, 2}, {0, 2}, {0, 3}} {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if got := ClusteringCoefficient(g, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("cc(1) = %v, want 1", got)
	}
	// Node 0 has neighbors {1,2,3}; only pair (1,2) is linked: 1/3.
	if got := ClusteringCoefficient(g, 0); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("cc(0) = %v, want 1/3", got)
	}
	if got := ClusteringCoefficient(g, 3); got != 0 {
		t.Errorf("cc(pendant) = %v, want 0", got)
	}
	if got := AverageClustering(g); math.Abs(got-(1.0/3+1+1+0)/4) > 1e-12 {
		t.Errorf("AverageClustering = %v", got)
	}
}

func TestAverageClusteringClique(t *testing.T) {
	g := cliqueGraph(t, 6)
	if got := AverageClustering(g); math.Abs(got-1) > 1e-12 {
		t.Errorf("AverageClustering(K6) = %v, want 1", got)
	}
}

func TestDegreeAssortativityRegular(t *testing.T) {
	// On a cycle, all degrees are equal so assortativity is undefined (NaN).
	b := NewBuilder(6)
	for i := 0; i < 6; i++ {
		if err := b.AddEdge(NodeID(i), NodeID((i+1)%6)); err != nil {
			t.Fatal(err)
		}
	}
	if got := DegreeAssortativity(b.Build()); !math.IsNaN(got) {
		t.Errorf("assortativity of regular graph = %v, want NaN", got)
	}
	var empty Graph
	if got := DegreeAssortativity(&empty); !math.IsNaN(got) {
		t.Errorf("assortativity of empty graph = %v, want NaN", got)
	}
}

func TestDegreeAssortativityStar(t *testing.T) {
	// Stars are maximally disassortative: coefficient -1.
	b := NewBuilder(5)
	for i := 1; i < 5; i++ {
		if err := b.AddEdge(0, NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := DegreeAssortativity(b.Build()); math.Abs(got-(-1)) > 1e-9 {
		t.Errorf("assortativity(star) = %v, want -1", got)
	}
}

// Property: BFS level sizes sum to Reached and distances respect edges
// (|d(u)-d(v)| <= 1 across any edge in the same component).
func TestBFSInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdgeSafe(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		r, err := BFS(g, NodeID(rng.Intn(n)))
		if err != nil {
			return false
		}
		var sum int64
		for _, c := range r.LevelSizes {
			sum += c
		}
		if sum != int64(r.Reached) {
			return false
		}
		for _, e := range g.Edges() {
			du, dv := r.Dist[e.U], r.Dist[e.V]
			if (du < 0) != (dv < 0) {
				return false // one endpoint reached, the other not
			}
			if du >= 0 && dv >= 0 && du-dv > 1 || dv-du > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
