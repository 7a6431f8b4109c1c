// Package graph provides the immutable, compressed-sparse-row (CSR) backed
// simple undirected graph that every measurement and defense in this
// repository operates on.
//
// The model follows §III-A of Mohaisen et al. (ICDCS 2011 Workshops):
// G = (V, E) is simple (no self loops, no parallel edges), undirected and
// unweighted; V corresponds to social actors and E to their ties. Nodes are
// dense integer identifiers in [0, N). The stochastic transition matrix P
// used by the random-walk machinery assigns probability 1/deg(v) to each
// neighbor of v (Eq. 1 of the paper); it is never materialized — packages
// that need it walk the CSR adjacency directly.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// NodeID identifies a vertex. IDs are dense: a graph with N nodes uses
// exactly the IDs 0..N-1.
type NodeID int32

// Edge is an undirected edge between two nodes. The zero value is the
// (valid, if dull) self-loop at node 0 and is rejected by Builder.AddEdge.
type Edge struct {
	U, V NodeID
}

// Canonical returns the edge with endpoints ordered so that U <= V. Two
// undirected edges are equal iff their canonical forms are equal.
func (e Edge) Canonical() Edge {
	if e.U > e.V {
		return Edge{U: e.V, V: e.U}
	}
	return e
}

// Graph is an immutable simple undirected graph in CSR form. The zero value
// is the empty graph. Graph values are safe for concurrent use by multiple
// goroutines because they are never mutated after construction.
type Graph struct {
	// offsets has length n+1; the neighbors of node v occupy
	// adjacency[offsets[v]:offsets[v+1]], sorted ascending.
	offsets   []int64
	adjacency []NodeID

	// stationary caches StationaryDistribution, which is hot under
	// repeated churn-epoch evaluation. Guarded by once; safe because the
	// topology is immutable.
	stationary struct {
		once sync.Once
		pi   []float64
		err  error
	}
}

var (
	// ErrSelfLoop is returned by Builder.AddEdge for an edge (v, v).
	ErrSelfLoop = errors.New("graph: self loop")
	// ErrNodeRange is returned when a node identifier is outside [0, N).
	ErrNodeRange = errors.New("graph: node out of range")
)

// NumNodes returns |V|.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns |E| (each undirected edge counted once).
func (g *Graph) NumEdges() int64 {
	if len(g.offsets) == 0 {
		return 0
	}
	return int64(len(g.adjacency)) / 2
}

// Degree returns deg(v), the number of neighbors of v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.adjacency[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if int(u) >= g.NumNodes() || int(v) >= g.NumNodes() || u < 0 || v < 0 {
		return false
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// Valid reports whether v is a node of the graph.
func (g *Graph) Valid(v NodeID) bool {
	return v >= 0 && int(v) < g.NumNodes()
}

// Edges returns every undirected edge exactly once, in canonical order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		for _, w := range g.Neighbors(v) {
			if v < w {
				out = append(out, Edge{U: v, V: w})
			}
		}
	}
	return out
}

// MaxDegree returns the maximum degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// MinDegree returns the minimum degree, or 0 for the empty graph.
func (g *Graph) MinDegree() int {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	minDeg := math.MaxInt
	for v := NodeID(0); int(v) < n; v++ {
		if d := g.Degree(v); d < minDeg {
			minDeg = d
		}
	}
	return minDeg
}

// AverageDegree returns 2m/n, or 0 for the empty graph.
func (g *Graph) AverageDegree() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return float64(2*g.NumEdges()) / float64(n)
}

// Degrees returns a fresh slice with the degree of every node.
func (g *Graph) Degrees() []int {
	out := make([]int, g.NumNodes())
	for v := range out {
		out[v] = g.Degree(NodeID(v))
	}
	return out
}

// errStationaryEdgeless is the shared stationary-distribution error for
// graphs and views without edges.
var errStationaryEdgeless = errors.New("graph: stationary distribution undefined for edgeless graph")

// StationaryDistribution returns π = [deg(v)/2m] for the random walk on a
// simple graph (§III-C). It returns an error if the graph has no edges,
// because the walk has no stationary distribution there.
//
// The distribution is computed once and cached (it is hot under repeated
// churn-epoch evaluation); the returned slice is shared and must not be
// modified.
func (g *Graph) StationaryDistribution() ([]float64, error) {
	g.stationary.once.Do(func() {
		m2 := float64(2 * g.NumEdges())
		if m2 == 0 {
			g.stationary.err = errStationaryEdgeless
			return
		}
		pi := make([]float64, g.NumNodes())
		for v := range pi {
			pi[v] = float64(g.Degree(NodeID(v))) / m2
		}
		g.stationary.pi = pi
	})
	return g.stationary.pi, g.stationary.err
}

// String implements fmt.Stringer with a compact size summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumNodes(), g.NumEdges())
}

// Builder accumulates edges and produces an immutable Graph. The zero value
// is unusable; create builders with NewBuilder. Builders are not safe for
// concurrent use.
type Builder struct {
	n     int
	edges []uint64 // packArc(u, v) per added edge
}

// NewBuilder returns a builder for a graph over the node set {0..n-1}.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// NumNodes returns the node-set size the builder was created with.
func (b *Builder) NumNodes() int { return b.n }

// AddEdge records the undirected edge (u, v). Self loops and out-of-range
// endpoints are errors; duplicate edges are accepted and deduplicated by
// Build.
func (b *Builder) AddEdge(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("%w: (%d,%d)", ErrSelfLoop, u, v)
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrNodeRange, u, v, b.n)
	}
	b.edges = append(b.edges, packArc(u, v))
	return nil
}

// AddEdgeSafe is AddEdge for callers that have already validated endpoints,
// e.g. generators that produce edges by construction. It silently drops
// self loops instead of erroring, which is the convention the random graph
// generators want.
func (b *Builder) AddEdgeSafe(u, v NodeID) {
	if u == v {
		return
	}
	b.edges = append(b.edges, packArc(u, v))
}

// NumPendingEdges returns the number of (possibly duplicate) edges recorded
// so far.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build produces the immutable CSR graph, deduplicating parallel edges,
// by the counting construction CSRWriter lays out each run with
// (rowLayout.csrRows). The graph's adjacency holds only the distinct
// arcs. The builder remains usable afterwards (further AddEdge calls
// accumulate on the same edge multiset).
func (b *Builder) Build() *Graph {
	var l rowLayout
	offsets, adj := l.csrRows(b.n, [][]uint64{b.edges})
	if len(adj) < cap(adj) {
		adj = append(make([]NodeID, 0, len(adj)), adj...)
	}
	return &Graph{offsets: offsets, adjacency: adj}
}

// rowLayout holds the arrays csrRows lays rows out in, so that a
// CSRWriter's successive runs reuse them instead of leaving each run's
// arrays to the collector.
type rowLayout struct {
	offsets, next  []int64
	unordered, adj []NodeID
}

// resize returns s with length k, reusing its array when it is large
// enough; the contents are unspecified.
func resize[T any](s []T, k int) []T {
	if cap(s) < k {
		return make([]T, k)
	}
	return s[:k]
}

// csrRows lays the undirected edges in chunks (packArc(u, v) for each
// edge u–v) out as the CSR rows of the simple graph they form over n
// nodes, with no comparison sort: the bin sort on which Batagelj and
// Zaveršnik's O(m) core decomposition builds (kcore.Decompose), run
// twice. A counting pass over both endpoints gives the row bounds, and
// a scatter writes both arcs of every edge into its row, unordered.
// Then walking the rows d = 0…n−1 and appending d to each neighbor's
// row in a second array fills every row in ascending order, because the
// graph is symmetric. The copies of a repeated edge arrive as adjacent
// repeats; a last pass skips them and compacts the rows. The rows cost
// 8 bytes per arc and two n-entry arrays, held in l until its next
// call. chunks is not read after the scatter, so a caller that keeps no
// other reference to it lets the collector take it back before the
// second array fills.
func (l *rowLayout) csrRows(n int, chunks [][]uint64) (offsets []int64, adj []NodeID) {
	offsets = resize(l.offsets, n+1)
	clear(offsets)
	var arcs int
	for _, c := range chunks {
		for _, e := range c {
			offsets[e>>32]++
			offsets[uint32(e)]++
		}
		arcs += 2 * len(c)
	}
	// offsets[u] is the end of row u; the scatter fills each row from
	// its end, so offsets[u] finishes at the row's start.
	var end int64
	for u, deg := range offsets[:n] {
		end += deg
		offsets[u] = end
	}
	offsets[n] = end
	unordered := resize(l.unordered, arcs)
	for _, c := range chunks {
		for _, e := range c {
			u, v := e>>32, uint64(uint32(e))
			offsets[u]--
			unordered[offsets[u]] = NodeID(v)
			offsets[v]--
			unordered[offsets[v]] = NodeID(u)
		}
	}
	// One spare entry lets a CSRWriter merge count degrees in next.
	next := resize(l.next, n+1)[:n]
	copy(next, offsets)
	adj = resize(l.adj, arcs)
	for d := range n {
		for _, x := range unordered[offsets[d]:offsets[d+1]] {
			adj[next[x]] = NodeID(d)
			next[x]++
		}
	}
	var kept, lo int64
	for u := range n {
		hi := offsets[u+1]
		offsets[u] = kept
		prev := NodeID(-1)
		for _, x := range adj[lo:hi] {
			if x != prev {
				adj[kept] = x
				kept++
				prev = x
			}
		}
		lo = hi
	}
	offsets[n] = kept
	*l = rowLayout{offsets: offsets, next: next, unordered: unordered, adj: adj}
	return offsets, adj[:kept]
}

// FromEdges builds a graph over n nodes from an edge list, validating every
// edge.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}
