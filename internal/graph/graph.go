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
	edges []Edge
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
	b.edges = append(b.edges, Edge{U: u, V: v}.Canonical())
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
	b.edges = append(b.edges, Edge{U: u, V: v}.Canonical())
}

// NumPendingEdges returns the number of (possibly duplicate) edges recorded
// so far.
func (b *Builder) NumPendingEdges() int { return len(b.edges) }

// Build produces the immutable CSR graph, deduplicating parallel edges.
// Both arcs of every edge are packed (packArc) and sorted by the radix
// sort CSRWriter uses (sortArcs), so the sorted arcs are the CSR rows in
// order: one pass reads the offsets and the adjacency off them.
// The builder remains usable afterwards (further AddEdge calls
// accumulate on the same edge multiset).
func (b *Builder) Build() *Graph {
	arcs := make([]uint64, 0, 2*len(b.edges))
	for _, e := range b.edges {
		arcs = append(arcs, packArc(e.U, e.V), packArc(e.V, e.U))
	}
	arcs, _ = sortArcs(arcs, make([]uint64, len(arcs)), b.n)
	offsets := make([]int64, b.n+1)
	adjacency := make([]NodeID, len(arcs))
	for i, a := range arcs {
		offsets[(a>>32)+1]++
		adjacency[i] = NodeID(uint32(a))
	}
	for v := 0; v < b.n; v++ {
		offsets[v+1] += offsets[v]
	}
	return &Graph{offsets: offsets, adjacency: adjacency}
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
