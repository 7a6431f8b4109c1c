package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// BFSResult holds the outcome of a breadth-first search from a single
// source: per-node distances (-1 for unreachable) and the number of nodes
// discovered at each level, which is exactly the L_i sequence the paper's
// expansion measurement (§III-D) consumes.
//
// ALIASING: a result produced by BFSWorker.Run shares its Dist and
// LevelSizes slices with the worker's scratch. It is valid only until the
// worker's next Run — in particular, a result retained after returning
// its worker to a BFSPool is silently overwritten by whoever draws that
// worker next. Callers that outlive the worker must Clone first.
type BFSResult struct {
	Source NodeID
	// Dist[v] is the hop distance from Source to v, or -1 if unreachable.
	Dist []int32
	// LevelSizes[i] is the number of nodes at distance i; LevelSizes[0]==1.
	LevelSizes []int64
	// Reached is the total number of nodes reachable from Source,
	// including the source itself.
	Reached int
}

// Eccentricity returns the largest finite distance from the source.
func (r *BFSResult) Eccentricity() int {
	return len(r.LevelSizes) - 1
}

// Clone returns a deep copy whose Dist and LevelSizes are freshly
// allocated, safe to retain after the producing worker runs again or
// goes back to its pool.
func (r *BFSResult) Clone() *BFSResult {
	return &BFSResult{
		Source:     r.Source,
		Dist:       append([]int32(nil), r.Dist...),
		LevelSizes: append([]int64(nil), r.LevelSizes...),
		Reached:    r.Reached,
	}
}

// BFS runs a breadth-first search from src, allocating its own scratch
// space. The result aliases that private scratch, which is never reused,
// so it is safe to retain. For repeated searches over the same graph use
// a BFSWorker (and Clone any result that must outlive the next Run).
func BFS(g View, src NodeID) (*BFSResult, error) {
	w := NewBFSWorker(g)
	return w.Run(src)
}

// BFSWorker amortizes BFS scratch allocations across many runs on the same
// graph view. Workers are not safe for concurrent use; make one per
// goroutine.
type BFSWorker struct {
	v      View
	nbr    *Adj
	dist   []int32
	queue  []NodeID
	levels []int64
}

// NewBFSWorker returns a worker bound to v.
func NewBFSWorker(v View) *BFSWorker {
	return &BFSWorker{
		v:     v,
		nbr:   NewAdj(v),
		dist:  make([]int32, v.NumNodes()),
		queue: make([]NodeID, 0, v.NumNodes()),
	}
}

// Run performs a BFS from src. The returned result's Dist and LevelSizes
// slices alias worker scratch reused by the next Run on this worker;
// callers that need the result afterwards (or after a BFSPool.Put) must
// copy what they keep, e.g. via BFSResult.Clone.
func (w *BFSWorker) Run(src NodeID) (*BFSResult, error) {
	if !w.v.Valid(src) {
		return nil, fmt.Errorf("%w: bfs source %d", ErrNodeRange, src)
	}
	for i := range w.dist {
		w.dist[i] = -1
	}
	w.queue = w.queue[:0]
	w.queue = append(w.queue, src)
	w.dist[src] = 0
	levelSizes := append(w.levels[:0], 1)
	reached := 1

	head := 0
	for head < len(w.queue) {
		v := w.queue[head]
		head++
		dv := w.dist[v]
		for _, u := range w.nbr.Neighbors(v) {
			if w.dist[u] < 0 {
				w.dist[u] = dv + 1
				w.queue = append(w.queue, u)
				reached++
				if int(dv+1) == len(levelSizes) {
					levelSizes = append(levelSizes, 0)
				}
				levelSizes[dv+1]++
			}
		}
	}
	w.levels = levelSizes
	return &BFSResult{Source: src, Dist: w.dist, LevelSizes: levelSizes, Reached: reached}, nil
}

// ConnectedComponents labels every node with a component index in [0, k)
// and returns the labels along with the size of each component. Components
// are indexed in the order of their smallest node ID, not by size; use
// LargestComponent for the largest one.
func ConnectedComponents(g View) (labels []int32, sizes []int64) {
	n := g.NumNodes()
	nbr := NewAdj(g)
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []NodeID
	next := int32(0)
	for s := NodeID(0); int(s) < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = next
		size := int64(1)
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range nbr.Neighbors(v) {
				if labels[u] < 0 {
					labels[u] = next
					size++
					queue = append(queue, u)
				}
			}
		}
		sizes = append(sizes, size)
		next++
	}
	return labels, sizes
}

// NumComponents returns the number of connected components.
func NumComponents(g View) int {
	_, sizes := ConnectedComponents(g)
	return len(sizes)
}

// IsConnected reports whether the graph is connected. The empty graph is
// considered connected.
func IsConnected(g View) bool {
	return g.NumNodes() == 0 || NumComponents(g) == 1
}

// largestComponentNodes returns the ascending node IDs of the largest
// connected component, none on a 0-node graph; ties break toward the
// component containing the smallest node ID.
func largestComponentNodes(g View) []NodeID {
	labels, sizes := ConnectedComponents(g)
	if len(sizes) == 0 {
		return nil
	}
	best := int32(0)
	for i, s := range sizes {
		if s > sizes[best] {
			best = int32(i)
		}
	}
	keep := make([]NodeID, 0, sizes[best])
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if labels[v] == best {
			keep = append(keep, v)
		}
	}
	return keep
}

// LargestComponent returns the induced subgraph of the largest connected
// component together with the mapping from new IDs to original IDs. Ties
// break toward the component containing the smallest original node ID.
// A 0-node graph gives a 0-node graph and an empty mapping.
func LargestComponent(g View) (*Graph, []NodeID) {
	keep := largestComponentNodes(g)
	return InducedSubgraph(g, keep), keep
}

// LargestComponentView returns LargestComponent(g).
//
// Deprecated: use LargestComponent. The largest component is built as a
// CSR graph; this forwarder stays only while perfbench calls it.
func LargestComponentView(g View) (*Graph, []NodeID) { return LargestComponent(g) }

// InducedSubgraph returns the subgraph of g induced by nodes, with node i
// of the result corresponding to nodes[i]. nodes must be strictly
// ascending and valid in g; InducedSubgraph panics otherwise, since only
// a bug produces such a list. It is one pass over the nodes' rows with an
// n-entry local-ID array: local IDs ascend with the original ones, so
// each sorted row of g with the neighbors outside nodes dropped is the
// sorted local row. The adjacency is sized by the nodes' degrees in g,
// which is exact for a connected component.
func InducedSubgraph(g View, nodes []NodeID) *Graph {
	local := make([]int32, g.NumNodes())
	for i := range local {
		local[i] = -1
	}
	var arcs int64
	for i, v := range nodes {
		if !g.Valid(v) || (i > 0 && v <= nodes[i-1]) {
			panic(fmt.Sprintf("graph: induced node list must be strictly ascending in [0,%d): node %d at index %d", g.NumNodes(), v, i))
		}
		local[v] = int32(i)
		arcs += int64(g.Degree(v))
	}
	offsets := make([]int64, len(nodes)+1)
	adj := make([]NodeID, 0, arcs)
	nbr := NewAdj(g)
	for i, v := range nodes {
		for _, w := range nbr.Neighbors(v) {
			if l := local[w]; l >= 0 {
				adj = append(adj, NodeID(l))
			}
		}
		offsets[i+1] = int64(len(adj))
	}
	return &Graph{offsets: offsets, adjacency: adj}
}

// Diameter computes the exact diameter of a connected graph by running a
// BFS from every node. It is O(n·m) and intended for the small and medium
// graphs used in tests and calibration; the experiments use
// EstimateDiameter instead.
func Diameter(g View) (int, error) {
	if g.NumNodes() == 0 {
		return 0, errors.New("graph: diameter of empty graph")
	}
	if !IsConnected(g) {
		return 0, errors.New("graph: diameter undefined for disconnected graph")
	}
	w := NewBFSWorker(g)
	diam := 0
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		r, err := w.Run(v)
		if err != nil {
			return 0, err
		}
		if e := r.Eccentricity(); e > diam {
			diam = e
		}
	}
	return diam, nil
}

// EstimateDiameter lower-bounds the diameter with the classic double-sweep
// heuristic repeated `sweeps` times from pseudo-deterministic start nodes.
// On social graphs the bound is usually exact or off by one, which is all
// the expansion experiments need (they use it to size envelope arrays).
func EstimateDiameter(g View, sweeps int) (int, error) {
	n := g.NumNodes()
	if n == 0 {
		return 0, errors.New("graph: diameter of empty graph")
	}
	if sweeps < 1 {
		sweeps = 1
	}
	w := NewBFSWorker(g)
	best := 0
	start := NodeID(0)
	for s := 0; s < sweeps; s++ {
		r, err := w.Run(start)
		if err != nil {
			return 0, err
		}
		// Move to a farthest node and sweep again.
		far := start
		farD := int32(0)
		for v := NodeID(0); int(v) < n; v++ {
			if r.Dist[v] > farD {
				farD = r.Dist[v]
				far = v
			}
		}
		r2, err := w.Run(far)
		if err != nil {
			return 0, err
		}
		if e := r2.Eccentricity(); e > best {
			best = e
		}
		// Next sweep starts from a node at median distance to diversify.
		start = medianDistanceNode(r2)
	}
	return best, nil
}

func medianDistanceNode(r *BFSResult) NodeID {
	target := int64(r.Reached / 2)
	var seen int64
	for d, c := range r.LevelSizes {
		seen += c
		if seen >= target {
			for v := NodeID(0); int(v) < len(r.Dist); v++ {
				if int(r.Dist[v]) == d {
					return v
				}
			}
		}
	}
	return r.Source
}

// ClusteringCoefficient returns the local clustering coefficient of v:
// the fraction of pairs of neighbors of v that are themselves adjacent.
// Nodes with degree < 2 have coefficient 0 by convention.
func ClusteringCoefficient(g *Graph, v NodeID) float64 {
	ns := g.Neighbors(v)
	d := len(ns)
	if d < 2 {
		return 0
	}
	links := 0
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if g.HasEdge(ns[i], ns[j]) {
				links++
			}
		}
	}
	return 2 * float64(links) / (float64(d) * float64(d-1))
}

// AverageClustering returns the mean local clustering coefficient over all
// nodes. O(sum deg^2); fine up to medium graphs.
func AverageClustering(g *Graph) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	total := 0.0
	for v := NodeID(0); int(v) < n; v++ {
		total += ClusteringCoefficient(g, v)
	}
	return total / float64(n)
}

// TriangleCount returns the number of triangles using the forward
// algorithm: orient each edge from lower-rank to higher-rank (rank =
// degree order) and intersect forward adjacencies, which costs
// O(m^{3/2}) instead of O(Σ deg²).
func TriangleCount(g *Graph) int64 {
	n := g.NumNodes()
	// rank[v]: position in degree-ascending order (ties by ID).
	order := make([]NodeID, n)
	for i := range order {
		order[i] = NodeID(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di < dj
		}
		return order[i] < order[j]
	})
	rank := make([]int32, n)
	for i, v := range order {
		rank[v] = int32(i)
	}
	// forward[v]: neighbors with higher rank, in rank order of insertion.
	forward := make([][]NodeID, n)
	var count int64
	for i := 0; i < n; i++ {
		v := order[i]
		for _, u := range g.Neighbors(v) {
			if rank[u] <= rank[v] {
				continue
			}
			// Count common forward neighbors of v and u processed so far.
			count += intersectCount(forward[v], forward[u])
			forward[u] = append(forward[u], v)
		}
	}
	return count
}

// intersectCount counts common elements of two small unsorted slices.
func intersectCount(a, b []NodeID) int64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return 0
	}
	set := make(map[NodeID]struct{}, len(a))
	for _, x := range a {
		set[x] = struct{}{}
	}
	var c int64
	for _, x := range b {
		if _, ok := set[x]; ok {
			c++
		}
	}
	return c
}

// Transitivity returns the global clustering coefficient
// 3·triangles / wedges, where a wedge is an ordered pair of distinct
// neighbors of a node. Returns 0 when the graph has no wedges.
func Transitivity(g *Graph) float64 {
	var wedges int64
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		d := int64(g.Degree(v))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return 3 * float64(TriangleCount(g)) / float64(wedges)
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// edges (Newman's assortativity coefficient). Returns NaN for graphs where
// it is undefined (no edges, or all degrees equal).
func DegreeAssortativity(g *Graph) float64 {
	m := g.NumEdges()
	if m == 0 {
		return math.NaN()
	}
	var sumXY, sumX, sumY, sumX2, sumY2 float64
	cnt := 0.0
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		dv := float64(g.Degree(v))
		for _, u := range g.Neighbors(v) {
			if u <= v {
				continue
			}
			du := float64(g.Degree(u))
			// Count each edge twice, once per orientation, to symmetrize.
			sumXY += 2 * dv * du
			sumX += dv + du
			sumY += dv + du
			sumX2 += dv*dv + du*du
			sumY2 += dv*dv + du*du
			cnt += 2
		}
	}
	num := sumXY/cnt - (sumX/cnt)*(sumY/cnt)
	den := math.Sqrt(sumX2/cnt-(sumX/cnt)*(sumX/cnt)) * math.Sqrt(sumY2/cnt-(sumY/cnt)*(sumY/cnt))
	if den == 0 {
		return math.NaN()
	}
	return num / den
}
