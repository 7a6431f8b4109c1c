package graph

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// pathGraph returns the path 0-1-2-...-(n-1).
func pathGraph(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		if err := b.AddEdge(NodeID(i), NodeID(i+1)); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return b.Build()
}

// cliqueGraph returns the complete graph K_n.
func cliqueGraph(t *testing.T, n int) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := b.AddEdge(NodeID(i), NodeID(j)); err != nil {
				t.Fatalf("AddEdge: %v", err)
			}
		}
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumNodes() != 0 {
		t.Errorf("NumNodes = %d, want 0", g.NumNodes())
	}
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d, want 0", g.NumEdges())
	}
	if g.MaxDegree() != 0 || g.MinDegree() != 0 {
		t.Errorf("degrees of empty graph = %d/%d, want 0/0", g.MinDegree(), g.MaxDegree())
	}
	if _, err := g.StationaryDistribution(); err == nil {
		t.Error("StationaryDistribution on empty graph: want error")
	}
}

func TestBuilderRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	err := b.AddEdge(1, 1)
	if !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("AddEdge(1,1) = %v, want ErrSelfLoop", err)
	}
}

func TestBuilderRejectsOutOfRange(t *testing.T) {
	b := NewBuilder(3)
	tests := []struct{ u, v NodeID }{{0, 3}, {3, 0}, {-1, 0}, {0, -1}}
	for _, tt := range tests {
		if err := b.AddEdge(tt.u, tt.v); !errors.Is(err, ErrNodeRange) {
			t.Errorf("AddEdge(%d,%d) = %v, want ErrNodeRange", tt.u, tt.v, err)
		}
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(4)
	for i := 0; i < 5; i++ {
		if err := b.AddEdge(0, 1); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 after dedup", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("degrees = %d,%d, want 1,1", g.Degree(0), g.Degree(1))
	}
	// The graph holds only the distinct arcs, and the builder stays
	// usable: a second Build holds both batches and leaves g as it was.
	if cap(g.adjacency) != 2 {
		t.Errorf("adjacency capacity %d, want the 2 distinct arcs", cap(g.adjacency))
	}
	b.AddEdgeSafe(3, 2)
	if g2 := b.Build(); g2.NumEdges() != 2 || !g2.HasEdge(2, 3) || !g2.HasEdge(0, 1) {
		t.Errorf("rebuilt graph has edges %v, want (0,1) (2,3)", g2.Edges())
	}
	if g.NumEdges() != 1 || g.HasEdge(2, 3) {
		t.Errorf("first graph changed to edges %v", g.Edges())
	}
}

func TestNeighborsSortedAndSymmetric(t *testing.T) {
	b := NewBuilder(6)
	edges := []Edge{{5, 0}, {3, 1}, {0, 3}, {4, 0}, {2, 5}, {1, 0}}
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		ns := g.Neighbors(v)
		if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
			t.Errorf("Neighbors(%d) = %v not sorted", v, ns)
		}
		for _, u := range ns {
			if !g.HasEdge(u, v) {
				t.Errorf("edge (%d,%d) present but (%d,%d) missing", v, u, u, v)
			}
		}
	}
}

func TestHasEdge(t *testing.T) {
	g := pathGraph(t, 4)
	tests := []struct {
		u, v NodeID
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {0, 2, false},
		{3, 2, true}, {0, 3, false}, {0, 0, false},
		{-1, 0, false}, {0, 99, false},
	}
	for _, tt := range tests {
		if got := g.HasEdge(tt.u, tt.v); got != tt.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", tt.u, tt.v, got, tt.want)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := cliqueGraph(t, 5)
	es := g.Edges()
	if len(es) != 10 {
		t.Fatalf("len(Edges) = %d, want 10", len(es))
	}
	g2, err := FromEdges(5, es)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumNodes() != g.NumNodes() {
		t.Errorf("round trip mismatch: %v vs %v", g2, g)
	}
}

func TestStationaryDistributionSumsToOne(t *testing.T) {
	g := pathGraph(t, 10)
	pi, err := g.StationaryDistribution()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, p := range pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("sum(pi) = %v, want 1", sum)
	}
	// Endpoints have degree 1, middle nodes degree 2; 2m = 18.
	if math.Abs(pi[0]-1.0/18) > 1e-12 {
		t.Errorf("pi[0] = %v, want 1/18", pi[0])
	}
	if math.Abs(pi[5]-2.0/18) > 1e-12 {
		t.Errorf("pi[5] = %v, want 2/18", pi[5])
	}
}

func TestDegreeStats(t *testing.T) {
	g := pathGraph(t, 5)
	if g.MaxDegree() != 2 {
		t.Errorf("MaxDegree = %d, want 2", g.MaxDegree())
	}
	if g.MinDegree() != 1 {
		t.Errorf("MinDegree = %d, want 1", g.MinDegree())
	}
	want := 2 * 4.0 / 5.0
	if math.Abs(g.AverageDegree()-want) > 1e-12 {
		t.Errorf("AverageDegree = %v, want %v", g.AverageDegree(), want)
	}
}

func TestCanonicalEdge(t *testing.T) {
	e := Edge{U: 5, V: 2}.Canonical()
	if e.U != 2 || e.V != 5 {
		t.Errorf("Canonical = %+v, want {2 5}", e)
	}
	e2 := Edge{U: 1, V: 7}.Canonical()
	if e2.U != 1 || e2.V != 7 {
		t.Errorf("Canonical of ordered edge changed: %+v", e2)
	}
}

// Property: for any random simple graph built via the Builder, the handshake
// lemma holds and every adjacency is symmetric.
func TestBuildInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(n)
		nEdges := rng.Intn(3 * n)
		for i := 0; i < nEdges; i++ {
			u := NodeID(rng.Intn(n))
			v := NodeID(rng.Intn(n))
			b.AddEdgeSafe(u, v)
		}
		g := b.Build()
		var degSum int64
		for v := NodeID(0); int(v) < n; v++ {
			degSum += int64(g.Degree(v))
			for _, u := range g.Neighbors(v) {
				if u == v {
					return false // self loop survived
				}
				if !g.HasEdge(u, v) {
					return false // asymmetric adjacency
				}
			}
		}
		return degSum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	g := pathGraph(t, 3)
	if got, want := g.String(), "graph{n=3 m=2}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}
