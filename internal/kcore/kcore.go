// Package kcore implements the graph-degeneracy measurements of §III-B of
// the paper: the Batagelj–Zaversnik O(m) core decomposition, per-node
// coreness, the relative core sizes ν_k (connected k-core, G_k) and ν̃_k
// (degree-condition-only cores, G̃_k), and the number of connected cores
// at each k — the quantities plotted in Figures 2 and 5.
package kcore

import (
	"errors"
	"fmt"

	"github.com/trustnet/trustnet/internal/graph"
)

// Decomposition is the result of the k-core decomposition of a graph.
type Decomposition struct {
	g graph.View
	// coreness[v] is the largest k such that v belongs to a k-core.
	coreness []int
	// maxCore is the degeneracy of the graph (largest non-empty core).
	maxCore int
}

// Decompose runs the Batagelj–Zaversnik algorithm: repeatedly remove the
// minimum-degree node, assigning it a coreness equal to its degree at
// removal time (monotonically clamped). Runs in O(m) using bucketed
// degree-ordered processing. It accepts any graph.View and runs directly
// over it — the single pass never warrants a materialized copy.
func Decompose(g graph.View) (*Decomposition, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("kcore: empty graph")
	}
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(graph.NodeID(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// bin[d] = start index of degree-d nodes in the sorted vertex array.
	bin := make([]int, maxDeg+2)
	for _, d := range deg {
		bin[d+1]++
	}
	for d := 1; d < len(bin); d++ {
		bin[d] += bin[d-1]
	}
	pos := make([]int, n)    // pos[v] = index of v in vert
	vert := make([]int32, n) // vertices sorted by current degree
	next := make([]int, maxDeg+1)
	copy(next, bin[:maxDeg+1])
	for v := 0; v < n; v++ {
		pos[v] = next[deg[v]]
		vert[pos[v]] = int32(v)
		next[deg[v]]++
	}

	core := make([]int, n)
	copy(core, deg)
	maxCore := 0
	nbr := graph.NewAdj(g)
	for i := 0; i < n; i++ {
		v := vert[i]
		if core[v] > maxCore {
			maxCore = core[v]
		}
		for _, u := range nbr.Neighbors(graph.NodeID(v)) {
			if core[u] > core[v] {
				du := core[u]
				pu := pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != graph.NodeID(w) {
					// Swap u with the first vertex of its degree bucket.
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, int32(u)
				}
				bin[du]++
				core[u]--
			}
		}
	}
	return &Decomposition{g: g, coreness: core, maxCore: maxCore}, nil
}

// Coreness returns the coreness of v.
func (d *Decomposition) Coreness(v graph.NodeID) (int, error) {
	if !d.g.Valid(v) {
		return 0, fmt.Errorf("kcore: node %d out of range", v)
	}
	return d.coreness[v], nil
}

// CorenessValues returns a copy of the per-node coreness array.
func (d *Decomposition) CorenessValues() []int {
	out := make([]int, len(d.coreness))
	copy(out, d.coreness)
	return out
}

// Degeneracy returns the largest k with a non-empty k-core.
func (d *Decomposition) Degeneracy() int { return d.maxCore }

// CoreNodes returns the nodes with coreness >= k — the vertex set of the
// (possibly disconnected) G̃_k of §III-B.
func (d *Decomposition) CoreNodes(k int) []graph.NodeID {
	var out []graph.NodeID
	for v, c := range d.coreness {
		if c >= k {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// CoreSubgraph returns the induced subgraph on CoreNodes(k) together with
// the mapping back to original node IDs. Every node of the result has
// degree >= k inside it (for k <= degeneracy).
func (d *Decomposition) CoreSubgraph(k int) (*graph.Graph, []graph.NodeID) {
	nodes := d.CoreNodes(k)
	return graph.InducedSubgraph(d.g, nodes), nodes
}

// LevelStats describes G̃_k (cores under the degree condition only) at one
// value of k, using the paper's relative-size notation.
type LevelStats struct {
	K int
	// Nodes and Edges are |V_k| and |E_k| of G̃_k.
	Nodes int
	Edges int64
	// NuTilde is ν̃_k = n_k/n, EdgeFraction is τ̃_k = m_k/m.
	NuTilde      float64
	EdgeFraction float64
	// Components is the number of connected components of G̃_k — the
	// "number of cores" series of Figure 5 (f)–(j).
	Components int
	// LargestComponentNodes is |V| of the biggest connected k-core, whose
	// relative size n/|V(G)| is the paper's ν_k for the largest core.
	LargestComponentNodes int
	// Nu is ν_k for the largest connected core.
	Nu float64
}

// Levels computes LevelStats for every k from 1 to the degeneracy. This is
// the entire data series behind Figure 5, and it needs no subgraph: one
// union-find sweep adds the nodes in decreasing coreness, bucketed by
// coreness as Decompose buckets degrees, and unites each node with its
// neighbors of coreness at least its own, counting each edge once, at the
// lower coreness of its endpoints. Once the coreness-k nodes are in, the
// nodes and edges counted so far are those of G̃_k, its components are the
// nodes less the successful unions, and the largest set is its largest
// connected core. O(m α(n)) for all levels together.
func (d *Decomposition) Levels() []LevelStats {
	n := d.g.NumNodes()
	m := d.g.NumEdges()
	// bin[k] is the start of the coreness-k nodes in order.
	bin := make([]int, d.maxCore+2)
	for _, c := range d.coreness {
		bin[c+1]++
	}
	for k := 1; k < len(bin); k++ {
		bin[k] += bin[k-1]
	}
	order := make([]int32, n)
	next := append([]int(nil), bin[:d.maxCore+1]...)
	for v, c := range d.coreness {
		order[next[c]] = int32(v)
		next[c]++
	}

	parent := make([]int32, n)
	size := make([]int32, n)
	for v := range parent {
		parent[v], size[v] = int32(v), 1
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	out := make([]LevelStats, d.maxCore)
	nbr := graph.NewAdj(d.g)
	var nodes, components int
	var edges int64
	largest := int32(1)
	for k := d.maxCore; k >= 1; k-- {
		for _, v := range order[bin[k]:bin[k+1]] {
			nodes++
			components++
			for _, u := range nbr.Neighbors(graph.NodeID(v)) {
				if cu := d.coreness[u]; cu < k || (cu == k && int32(u) > v) {
					continue
				}
				edges++
				ru, rv := find(int32(u)), find(v)
				if ru == rv {
					continue
				}
				if size[ru] < size[rv] {
					ru, rv = rv, ru
				}
				parent[rv] = ru
				size[ru] += size[rv]
				largest = max(largest, size[ru])
				components--
			}
		}
		// A level exists only if the graph has an edge, so m > 0.
		out[k-1] = LevelStats{
			K:                     k,
			Nodes:                 nodes,
			Edges:                 edges,
			NuTilde:               float64(nodes) / float64(n),
			EdgeFraction:          float64(edges) / float64(m),
			Components:            components,
			LargestComponentNodes: int(largest),
			Nu:                    float64(largest) / float64(n),
		}
	}
	return out
}

// CorenessECDFSamples returns the coreness of every node as float64
// samples, ready for stats.NewECDF — the Figure 2 series.
func (d *Decomposition) CorenessECDFSamples() []float64 {
	out := make([]float64, len(d.coreness))
	for i, c := range d.coreness {
		out[i] = float64(c)
	}
	return out
}
