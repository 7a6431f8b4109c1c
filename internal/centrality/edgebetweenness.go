package centrality

import (
	"context"
	"errors"
	"fmt"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/parallel"
)

// EdgeScore is an undirected edge with its betweenness value.
type EdgeScore struct {
	Edge  graph.Edge
	Score float64
}

// EdgeBetweenness computes shortest-path betweenness for every edge with
// the Brandes edge variant (each unordered source pair counted once).
// Attack edges in a Sybil attack are bridges between two well-connected
// regions, so they acquire anomalously high edge betweenness — the signal
// the bridge-removal defense (internal/sybil/bridgecut) exploits. The
// scores are bit-identical at any worker count.
func EdgeBetweenness(ctx context.Context, g graph.View, cfg Config) (map[graph.Edge]float64, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("centrality: empty graph")
	}
	sources, scale, err := pivotSources(g, cfg.Pivots)
	if err != nil {
		return nil, err
	}
	// Per-slot partials indexed by edge number, summed a block of
	// sources at a time and merged in block order (forEachBlock).
	ix := newEdgeIndex(g)
	workers := parallel.Workers(cfg.Workers, (len(sources)+blockSources-1)/blockSources)
	partials := make([][]float64, workers)
	states := make([]*brandesState, workers)
	for s := 0; s < workers; s++ {
		partials[s] = make([]float64, len(ix.edges))
		states[s] = newBrandesState(g)
	}
	sum := make([]float64, len(ix.edges))
	err = forEachBlock(ctx, workers, len(sources), func(slot, i int) {
		states[slot].runEdges(sources[i], ix, partials[slot])
	}, func(slot int) {
		p := partials[slot]
		for e := range sum {
			sum[e] += p[e]
			p[e] = 0
		}
	})
	if err != nil {
		return nil, fmt.Errorf("centrality: edge betweenness: %w", err)
	}
	// Every dependency is positive, so the edges on no sampled shortest
	// path are the ones left at zero, and they stay out of the map.
	out := make(map[graph.Edge]float64, len(ix.edges))
	for e, v := range sum {
		if v != 0 {
			out[ix.edges[e]] = v * (scale / 2)
		}
	}
	return out, nil
}

// edgeIndex numbers a view's undirected edges: arc[off[u]+j] is the
// number of the edge from u to its j-th neighbor, and edges[k] is edge
// k in canonical form.
type edgeIndex struct {
	off   []int
	arc   []int32
	edges []graph.Edge
}

func newEdgeIndex(g graph.View) *edgeIndex {
	n := g.NumNodes()
	nbr := graph.NewAdj(g)
	ix := &edgeIndex{off: make([]int, n+1)}
	num := make(map[graph.Edge]int32, int(g.NumEdges()))
	for u := graph.NodeID(0); int(u) < n; u++ {
		for _, v := range nbr.Neighbors(u) {
			e := graph.Edge{U: u, V: v}.Canonical()
			k, ok := num[e]
			if !ok {
				k = int32(len(ix.edges))
				num[e] = k
				ix.edges = append(ix.edges, e)
			}
			ix.arc = append(ix.arc, k)
		}
		ix.off[u+1] = len(ix.arc)
	}
	return ix
}

// runEdges accumulates per-edge dependencies from source s into acc,
// indexed by ix's edge numbers.
func (st *brandesState) runEdges(s graph.NodeID, ix *edgeIndex, acc []float64) {
	for i := range st.dist {
		st.dist[i] = -1
		st.sigma[i] = 0
		st.delta[i] = 0
	}
	st.queue = st.queue[:0]
	st.order = st.order[:0]

	st.dist[s] = 0
	st.sigma[s] = 1
	st.queue = append(st.queue, s)
	for head := 0; head < len(st.queue); head++ {
		v := st.queue[head]
		st.order = append(st.order, v)
		for _, u := range st.nbr.Neighbors(v) {
			if st.dist[u] < 0 {
				st.dist[u] = st.dist[v] + 1
				st.queue = append(st.queue, u)
			}
			if st.dist[u] == st.dist[v]+1 {
				st.sigma[u] += st.sigma[v]
			}
		}
	}
	for i := len(st.order) - 1; i >= 0; i-- {
		w := st.order[i]
		arcs := ix.arc[ix.off[w]:ix.off[w+1]]
		for j, v := range st.nbr.Neighbors(w) {
			if st.dist[v] == st.dist[w]-1 {
				c := st.sigma[v] / st.sigma[w] * (1 + st.delta[w])
				st.delta[v] += c
				acc[arcs[j]] += c
			}
		}
	}
}

// TopEdges returns the k highest-betweenness edges, descending. Ties
// break toward the lexicographically smaller edge.
func TopEdges(scores map[graph.Edge]float64, k int) []EdgeScore {
	out := make([]EdgeScore, 0, len(scores))
	for e, s := range scores {
		out = append(out, EdgeScore{Edge: e, Score: s})
	}
	// Partial selection: k is small in every use here.
	if k > len(out) {
		k = len(out)
	}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(out); j++ {
			a, b := out[best], out[j]
			if b.Score > a.Score ||
				(b.Score == a.Score && (b.Edge.U < a.Edge.U ||
					(b.Edge.U == a.Edge.U && b.Edge.V < a.Edge.V))) {
				best = j
			}
		}
		out[i], out[best] = out[best], out[i]
	}
	return out[:k]
}
