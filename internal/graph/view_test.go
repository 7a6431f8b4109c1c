package graph

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

// randomGraph builds a deterministic Erdős–Rényi-ish graph with a Builder
// — the reference construction every view is compared against.
func randomGraph(t *testing.T, n int, p float64, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				b.AddEdgeSafe(NodeID(u), NodeID(v))
			}
		}
	}
	return b.Build()
}

// viewEdges collects VisitEdges output.
func viewEdges(v View) []Edge {
	var out []Edge
	v.VisitEdges(func(e Edge) bool {
		out = append(out, e)
		return true
	})
	return out
}

// checkViewMatchesGraph asserts v and want describe the same topology,
// member by member: counts, degrees, neighbor lists, edge iteration, and
// materialization.
func checkViewMatchesGraph(t *testing.T, v View, want *Graph) {
	t.Helper()
	if v.NumNodes() != want.NumNodes() {
		t.Fatalf("NumNodes = %d, want %d", v.NumNodes(), want.NumNodes())
	}
	if v.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", v.NumEdges(), want.NumEdges())
	}
	var buf []NodeID
	for u := NodeID(0); int(u) < want.NumNodes(); u++ {
		if v.Degree(u) != want.Degree(u) {
			t.Fatalf("Degree(%d) = %d, want %d", u, v.Degree(u), want.Degree(u))
		}
		buf = v.AppendNeighbors(u, buf[:0])
		wantNs := want.Neighbors(u)
		if len(buf) != len(wantNs) {
			t.Fatalf("Neighbors(%d) = %v, want %v", u, buf, wantNs)
		}
		for i := range buf {
			if buf[i] != wantNs[i] {
				t.Fatalf("Neighbors(%d) = %v, want %v", u, buf, wantNs)
			}
		}
	}
	got, wantEdges := viewEdges(v), want.Edges()
	if len(got) != len(wantEdges) {
		t.Fatalf("VisitEdges yielded %d edges, want %d", len(got), len(wantEdges))
	}
	for i := range got {
		if got[i] != wantEdges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], wantEdges[i])
		}
	}
	mat := Materialize(v)
	if !reflect.DeepEqual(mat.Edges(), wantEdges) && !(len(wantEdges) == 0 && len(mat.Edges()) == 0) {
		t.Fatalf("Materialize edges diverge from reference")
	}
	if mat.NumNodes() != want.NumNodes() {
		t.Fatalf("Materialize NumNodes = %d, want %d", mat.NumNodes(), want.NumNodes())
	}
}

func TestEquivalenceViewMaskedVsRebuild(t *testing.T) {
	g := randomGraph(t, 120, 0.08, 1)
	mv := NewMaskedView(g)
	rng := rand.New(rand.NewSource(2))

	alive := make([]bool, g.NumNodes())
	for i := range alive {
		alive[i] = true
	}
	dropped := make(map[Edge]bool)

	// reference rebuilds the surviving graph from scratch with a Builder.
	reference := func() *Graph {
		b := NewBuilder(g.NumNodes())
		for _, e := range g.Edges() {
			if alive[e.U] && alive[e.V] && !dropped[e] {
				b.AddEdgeSafe(e.U, e.V)
			}
		}
		return b.Build()
	}

	edges := g.Edges()
	for round := 0; round < 6; round++ {
		// Kill a batch of random nodes, drop a batch of random edges,
		// revive a couple of previously killed nodes.
		for i := 0; i < 10; i++ {
			v := NodeID(rng.Intn(g.NumNodes()))
			alive[v] = false
			mv.SetAlive(v, false)
		}
		for i := 0; i < 15; i++ {
			e := edges[rng.Intn(len(edges))]
			if mv.DropEdge(e.U, e.V) != !dropped[e] {
				t.Fatalf("round %d: DropEdge(%v) first-drop report disagrees with reference", round, e)
			}
			dropped[e] = true
		}
		for i := 0; i < 3; i++ {
			v := NodeID(rng.Intn(g.NumNodes()))
			alive[v] = true
			mv.SetAlive(v, true)
		}
		want := reference()
		checkViewMatchesGraph(t, mv, want)
		for _, e := range edges {
			wantUp := alive[e.U] && alive[e.V] && !dropped[e]
			if mv.HasEdge(e.U, e.V) != wantUp {
				t.Fatalf("round %d: HasEdge(%v) = %v, want %v", round, e, mv.HasEdge(e.U, e.V), wantUp)
			}
			if mv.Dropped(e.U, e.V) != dropped[e] {
				t.Fatalf("round %d: Dropped(%v) = %v, want %v", round, e, mv.Dropped(e.U, e.V), dropped[e])
			}
		}
		k := 0
		mv.VisitSubstrateEdges(func(e Edge, d bool) bool {
			if k >= len(edges) || e != edges[k] || d != dropped[e] {
				t.Fatalf("round %d: VisitSubstrateEdges yielded %v (dropped %v) at %d, want substrate edge order and drop bits", round, e, d, k)
			}
			k++
			return true
		})
		if k != len(edges) {
			t.Fatalf("round %d: VisitSubstrateEdges yielded %d edges, want %d", round, k, len(edges))
		}
	}

	// Reset restores the substrate exactly.
	mv.Reset()
	checkViewMatchesGraph(t, mv, g)
	if mv.NumAlive() != g.NumNodes() {
		t.Fatalf("NumAlive after Reset = %d, want %d", mv.NumAlive(), g.NumNodes())
	}
}

func TestEquivalenceViewMaskedFullyChurned(t *testing.T) {
	g := randomGraph(t, 40, 0.2, 3)
	mv := NewMaskedView(g)
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		mv.SetAlive(v, false)
	}
	if mv.NumAlive() != 0 || mv.NumEdges() != 0 {
		t.Fatalf("fully churned view: alive=%d edges=%d, want 0/0", mv.NumAlive(), mv.NumEdges())
	}
	checkViewMatchesGraph(t, mv, NewBuilder(g.NumNodes()).Build())
	if _, err := Stationary(mv); err == nil {
		t.Fatal("Stationary on edgeless view: want error")
	}
}

// inducedOracle is the map-plus-Builder induced-subgraph construction
// InducedSubgraph replaced, kept as the reference it must match.
func inducedOracle(g View, nodes []NodeID) *Graph {
	remap := make(map[NodeID]NodeID, len(nodes))
	for i, v := range nodes {
		remap[v] = NodeID(i)
	}
	nbr := NewAdj(g)
	b := NewBuilder(len(nodes))
	for i, v := range nodes {
		for _, u := range nbr.Neighbors(v) {
			j, ok := remap[u]
			if ok && NodeID(i) < j {
				b.AddEdgeSafe(NodeID(i), j)
			}
		}
	}
	return b.Build()
}

// TestEquivalenceInducedSubgraph checks the linear InducedSubgraph
// against inducedOracle on random graphs and random ascending subsets,
// over a *Graph, a churned MaskedView and a Mapped base, and that a node
// list that is not strictly ascending and valid panics.
func TestEquivalenceInducedSubgraph(t *testing.T) {
	g := randomGraph(t, 150, 0.06, 4)
	mv := NewMaskedView(g)
	rng := rand.New(rand.NewSource(5))
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if rng.Float64() < 0.2 {
			mv.SetAlive(v, false)
		}
	}
	edges := g.Edges()
	for i := 0; i < len(edges)/10; i++ {
		e := edges[rng.Intn(len(edges))]
		mv.DropEdge(e.U, e.V)
	}
	path := filepath.Join(t.TempDir(), "g.tng2")
	if err := SaveCSR(path, g); err != nil {
		t.Fatal(err)
	}
	mg, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()

	n := g.NumNodes()
	all := make([]NodeID, n)
	for i := range all {
		all[i] = NodeID(i)
	}
	subsets := [][]NodeID{nil, {0}, {NodeID(n - 1)}, all}
	for _, p := range []float64{0.05, 0.3, 0.7, 0.95} {
		var nodes []NodeID
		for v := NodeID(0); int(v) < n; v++ {
			if rng.Float64() < p {
				nodes = append(nodes, v)
			}
		}
		subsets = append(subsets, nodes)
	}
	isolated := false
	for _, base := range []struct {
		name string
		v    View
	}{{"graph", g}, {"masked", mv}, {"mapped", mg}} {
		for i, nodes := range subsets {
			got := InducedSubgraph(base.v, nodes)
			want := inducedOracle(base.v, nodes)
			if got.NumNodes() != len(nodes) {
				t.Fatalf("%s subset %d: %d nodes, want %d", base.name, i, got.NumNodes(), len(nodes))
			}
			checkViewMatchesGraph(t, got, want)
			isolated = isolated || (got.NumNodes() > 0 && got.MinDegree() == 0)
		}
	}
	if !isolated {
		t.Fatal("no subset left an isolated node")
	}

	for _, bad := range [][]NodeID{{3, 2}, {2, 2}, {-1}, {NodeID(n)}, {0, 5, 5, 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("InducedSubgraph(%v) did not panic", bad)
				}
			}()
			InducedSubgraph(g, bad)
		}()
	}
}

func TestEquivalenceViewMaterializeInto(t *testing.T) {
	g := randomGraph(t, 80, 0.1, 8)
	mv := NewMaskedView(g)
	var off []int64
	var adj []NodeID
	var prev *Graph
	for round := 0; round < 4; round++ {
		mv.SetAlive(NodeID(10*round), false)
		mv.DropEdge(g.Edges()[round].U, g.Edges()[round].V)
		var got *Graph
		got, off, adj = MaterializeInto(mv, off, adj)
		want := Materialize(mv)
		if !reflect.DeepEqual(got.Edges(), want.Edges()) && got.NumEdges() != 0 {
			t.Fatalf("round %d: MaterializeInto diverges from Materialize", round)
		}
		if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
			t.Fatalf("round %d: size mismatch", round)
		}
		prev = got
	}
	_ = prev
}

func TestEquivalenceViewStationary(t *testing.T) {
	g := randomGraph(t, 90, 0.08, 9)
	mv := NewMaskedView(g)
	for v := NodeID(0); v < 20; v++ {
		mv.SetAlive(v, false)
	}
	got, err := Stationary(mv)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Materialize(mv).StationaryDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pi[%d] = %v, want %v (must be bit-identical)", i, got[i], want[i])
		}
	}
}

func TestStationaryDistributionCached(t *testing.T) {
	g := randomGraph(t, 50, 0.2, 10)
	a, err := g.StationaryDistribution()
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.StationaryDistribution()
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Fatal("StationaryDistribution not cached: repeated calls returned distinct slices")
	}
}
