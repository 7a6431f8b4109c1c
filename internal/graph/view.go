package graph

import "fmt"

// View is the read-only graph abstraction shared by every measurement in the
// repository. *Graph implements it directly, Mapped over a TNG2 file, and
// MaskedView zero-copy over a substrate *Graph: the churned topology a
// fault schedule leaves, whose mask the schedule mutates in place every
// epoch. Induced subgraphs and growth prefixes are built as CSR graphs
// (InducedSubgraph, FromEdges): every kernel reads CSR arrays, so a view
// of them would only be copied again.
//
// Contract, mirroring Graph: nodes are dense IDs in [0, NumNodes());
// neighbor lists are sorted ascending and free of self loops and
// duplicates; NumEdges counts each undirected edge once; VisitEdges yields
// canonical edges (U < V) in ascending (U, V) order. Views must be safe for
// concurrent readers; mutable views (MaskedView) additionally require that
// mutation is not concurrent with reads.
type View interface {
	// NumNodes returns |V|.
	NumNodes() int
	// NumEdges returns |E|, each undirected edge counted once.
	NumEdges() int64
	// Valid reports whether v is a node of the view.
	Valid(v NodeID) bool
	// Degree returns the number of neighbors of v in the view.
	Degree(v NodeID) int
	// AppendNeighbors appends the sorted neighbor list of v to buf and
	// returns the extended slice. Appending (rather than returning an
	// aliased slice, as Graph.Neighbors does) lets masked and remapped
	// views stay allocation-free with a caller-owned buffer.
	AppendNeighbors(v NodeID, buf []NodeID) []NodeID
	// VisitEdges calls visit for every edge in canonical ascending order
	// until visit returns false.
	VisitEdges(visit func(Edge) bool)
}

// CSRSource is implemented by views that are directly backed by a CSR
// *Graph with no masking or remapping: *Graph itself and the mmap-backed
// Mapped. The batched kernels (internal/kernels) require raw CSR arrays;
// Materialize returns them through AsCSR without a copy, and Adj serves
// their aliased neighbor slices.
type CSRSource interface {
	View
	// CSR returns the backing CSR graph. The result views the same
	// topology: same node IDs, same edges.
	CSR() *Graph
}

// AppendNeighbors implements View. The appended elements alias nothing; buf
// may be retained by the caller.
func (g *Graph) AppendNeighbors(v NodeID, buf []NodeID) []NodeID {
	return append(buf, g.Neighbors(v)...)
}

// VisitEdges implements View, yielding canonical edges in ascending order.
func (g *Graph) VisitEdges(visit func(Edge) bool) {
	n := g.NumNodes()
	for v := NodeID(0); int(v) < n; v++ {
		for _, w := range g.Neighbors(v) {
			if v < w && !visit(Edge{U: v, V: w}) {
				return
			}
		}
	}
}

// CSR implements CSRSource: a Graph is its own CSR backing.
func (g *Graph) CSR() *Graph { return g }

// AsCSR returns the raw CSR graph behind v when v is CSR-backed
// (zero-copy), and (nil, false) otherwise.
func AsCSR(v View) (*Graph, bool) {
	if s, ok := v.(CSRSource); ok {
		return s.CSR(), true
	}
	return nil, false
}

// Materialize returns a CSR *Graph with exactly the view's nodes and edges.
// CSR-backed views are returned as-is (zero copy); anything else is copied.
// Because view neighbor lists are already sorted and deduplicated, the copy
// is a linear O(n+m) pass — no arc sort, unlike a Builder. The result must
// not be modified.
//
// This is the kernel escape hatch: measurement entry points that run the
// batched CSR kernels call Materialize once and amortize the copy across
// the whole measurement.
func Materialize(v View) *Graph {
	if g, ok := AsCSR(v); ok {
		return g
	}
	g, _, _ := MaterializeInto(v, nil, nil)
	return g
}

// MaterializeInto is Materialize with caller-owned storage: it fills (and
// grows if needed) the offsets and adjacency buffers with a CSR copy of v
// and returns a fresh *Graph header over them plus the buffers for reuse.
// Unlike Materialize it always copies, even a CSR-backed view, and the
// returned graph is only valid until the buffers are reused — it is the
// allocation-free path for callers that re-materialize a mutating view
// every epoch.
func MaterializeInto(v View, offsets []int64, adjacency []NodeID) (*Graph, []int64, []NodeID) {
	n := v.NumNodes()
	if cap(offsets) < n+1 {
		offsets = make([]int64, n+1)
	}
	offsets = offsets[:n+1]
	offsets[0] = 0
	for u := 0; u < n; u++ {
		offsets[u+1] = offsets[u] + int64(v.Degree(NodeID(u)))
	}
	if int64(cap(adjacency)) < offsets[n] {
		adjacency = make([]NodeID, 0, offsets[n])
	}
	// Append each node's list onto the shared buffer; keeping the returned
	// slice matters, because a view may append (and then discard) more than
	// Degree elements transiently, reallocating past the reserved capacity.
	adjacency = adjacency[:0]
	for u := 0; u < n; u++ {
		adjacency = v.AppendNeighbors(NodeID(u), adjacency)
		if int64(len(adjacency)) != offsets[u+1] {
			panic(fmt.Sprintf("graph: view degree %d of node %d disagrees with its neighbor list",
				v.Degree(NodeID(u)), u))
		}
	}
	return &Graph{offsets: offsets, adjacency: adjacency}, offsets, adjacency
}

// Stationary returns π = [deg(v)/2m] of the lazy-free random walk on the
// view (§III-C), erroring on an edgeless view. For a plain *Graph it
// returns the graph's cached distribution; the result must not be modified
// in either case.
func Stationary(v View) ([]float64, error) {
	if g, ok := AsCSR(v); ok {
		return g.StationaryDistribution()
	}
	m2 := float64(2 * v.NumEdges())
	if m2 == 0 {
		return nil, errStationaryEdgeless
	}
	pi := make([]float64, v.NumNodes())
	for u := range pi {
		pi[u] = float64(v.Degree(NodeID(u))) / m2
	}
	return pi, nil
}

// Adj is a per-goroutine neighbor cursor over a View. On CSR-backed views
// (AsCSR) Neighbors is the zero-copy aliased slice; otherwise neighbors
// are appended into one reused buffer, so steady-state traversal
// allocates nothing either way. An Adj must not be shared between
// goroutines, and a returned slice is only valid until the next Neighbors
// call.
type Adj struct {
	g   *Graph
	v   View
	buf []NodeID
}

// NewAdj returns a cursor for v.
func NewAdj(v View) *Adj {
	if g, ok := AsCSR(v); ok {
		return &Adj{g: g}
	}
	return &Adj{v: v}
}

// Neighbors returns the sorted neighbor list of u, valid until the next
// call. The slice must not be modified.
func (a *Adj) Neighbors(u NodeID) []NodeID {
	if a.g != nil {
		return a.g.Neighbors(u)
	}
	a.buf = a.v.AppendNeighbors(u, a.buf[:0])
	return a.buf
}

var (
	_ CSRSource = (*Graph)(nil)
	_ View      = (*Graph)(nil)
)
