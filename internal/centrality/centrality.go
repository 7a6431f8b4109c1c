// Package centrality implements the node-centrality measures §I of the
// paper lists among the algorithmic properties trustworthy-computing
// systems are built on: shortest-path betweenness (used for Sybil defense
// by Quercia–Hailes and measured by the authors' companion betweenness
// study) and closeness (used for content sharing and anonymity in
// OneSwarm-style systems).
//
// Betweenness uses Brandes' exact algorithm — O(nm) on unweighted graphs
// via one BFS plus a dependency back-propagation per source — with an
// optional sampled-pivots estimator for larger graphs. All functions
// treat the graph as unweighted and undirected, matching the paper's
// model.
package centrality

import (
	"context"
	"errors"
	"fmt"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/parallel"
)

// Config controls a centrality computation.
type Config struct {
	// Pivots samples this many source nodes instead of running from all
	// n (0 = exact). Sampled betweenness values are scaled by n/pivots
	// so they estimate the exact ones.
	Pivots int
	// Workers bounds parallelism; <= 0 uses GOMAXPROCS.
	Workers int
}

// Betweenness computes (exact or pivot-sampled) shortest-path betweenness
// for every node. Endpoint pairs are excluded, and each unordered pair is
// counted once, following the standard convention for undirected graphs.
// The scores are bit-identical at any worker count.
func Betweenness(ctx context.Context, g graph.View, cfg Config) ([]float64, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("centrality: empty graph")
	}
	sources, scale, err := pivotSources(g, cfg.Pivots)
	if err != nil {
		return nil, err
	}
	workers := parallel.Workers(cfg.Workers, (len(sources)+blockSources-1)/blockSources)
	partials := make([][]float64, workers)
	states := make([]*brandesState, workers)
	for s := 0; s < workers; s++ {
		partials[s] = make([]float64, n)
		states[s] = newBrandesState(g)
	}
	out := make([]float64, n)
	err = forEachBlock(ctx, workers, len(sources), func(slot, i int) {
		states[slot].run(sources[i], partials[slot])
	}, func(slot int) {
		p := partials[slot]
		for v := range out {
			out[v] += p[v]
			p[v] = 0
		}
	})
	if err != nil {
		return nil, fmt.Errorf("centrality: betweenness: %w", err)
	}
	// Each unordered pair was visited from both endpoints in the exact
	// case; halve, then apply the sampling scale.
	for v := range out {
		out[v] *= scale / 2
	}
	return out, nil
}

// blockSources is how many consecutive sources one partial sum
// covers. It does not depend on the worker count, so neither do the
// float sums.
const blockSources = 16

// forEachBlock cuts the sources [0, n) into blocks of blockSources and
// runs them in waves of workers blocks: block j of a wave runs its
// sources in order as run(j, i) on slot j, which sums them into slot
// j's partial, and once the wave has joined, merge(j) folds that
// partial into the total, and clears it, for each block j in block
// order. The total is then the same sum, in the same order, at any
// worker count, and memory stays one partial per worker. Cancellation
// is checked before every source.
func forEachBlock(ctx context.Context, workers, n int, run func(slot, i int), merge func(slot int)) error {
	blocks := parallel.Blocks(n, blockSources)
	for start := 0; start < len(blocks); start += workers {
		wave := blocks[start:min(start+workers, len(blocks))]
		err := parallel.ForEach(ctx, len(wave), len(wave), func(_, j int) error {
			for i := wave[j].Start; i < wave[j].End; i++ {
				if err := ctx.Err(); err != nil {
					return err
				}
				run(j, i)
			}
			return nil
		})
		if err != nil {
			return err
		}
		for j := range wave {
			merge(j)
		}
	}
	return nil
}

// brandesState holds per-worker scratch for Brandes' algorithm, including
// its own neighbor cursor so concurrent slots never share a view buffer.
type brandesState struct {
	nbr   *graph.Adj
	dist  []int32
	sigma []float64
	delta []float64
	queue []graph.NodeID
	order []graph.NodeID
}

func newBrandesState(g graph.View) *brandesState {
	n := g.NumNodes()
	return &brandesState{
		nbr:   graph.NewAdj(g),
		dist:  make([]int32, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		queue: make([]graph.NodeID, 0, n),
		order: make([]graph.NodeID, 0, n),
	}
}

// run accumulates source-dependencies from s into acc.
func (st *brandesState) run(s graph.NodeID, acc []float64) {
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
	// Back-propagate dependencies in reverse BFS order.
	for i := len(st.order) - 1; i >= 0; i-- {
		w := st.order[i]
		for _, v := range st.nbr.Neighbors(w) {
			if st.dist[v] == st.dist[w]-1 {
				st.delta[v] += st.sigma[v] / st.sigma[w] * (1 + st.delta[w])
			}
		}
		if w != s {
			acc[w] += st.delta[w]
		}
	}
}

// Closeness computes closeness centrality: (reachable-1) / sum of
// distances to reachable nodes, scaled by the reachable fraction
// (the Wasserman–Faust correction) so values are comparable across
// components. Isolated nodes get 0.
func Closeness(ctx context.Context, g graph.View, cfg Config) ([]float64, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, errors.New("centrality: empty graph")
	}
	sources, _, err := pivotSources(g, 0) // closeness is per-node; always all nodes
	if err != nil {
		return nil, err
	}
	// Each item writes only out[v] for its own node, so the fan-out is
	// race-free without shards; BFS scratch comes from a shared pool.
	out := make([]float64, n)
	pool := graph.NewBFSPool(g)
	err = parallel.ForEach(ctx, cfg.Workers, len(sources), func(_, i int) error {
		v := sources[i]
		bfs := pool.Get()
		defer pool.Put(bfs)
		r, err := bfs.Run(v)
		if err != nil {
			return err
		}
		// r aliases pooled scratch; everything below reads it before the
		// deferred Put, and nothing of r escapes this task.
		var sum int64
		for d, c := range r.LevelSizes {
			sum += int64(d) * c
		}
		if sum == 0 {
			return nil
		}
		reach := float64(r.Reached - 1)
		out[v] = reach / float64(sum) * (reach / float64(n-1))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("centrality: closeness: %w", err)
	}
	return out, nil
}

// pivotSources returns the source set and the betweenness scale factor.
func pivotSources(g graph.View, pivots int) ([]graph.NodeID, float64, error) {
	n := g.NumNodes()
	if pivots < 0 {
		return nil, 0, fmt.Errorf("centrality: negative pivot count %d", pivots)
	}
	if pivots == 0 || pivots >= n {
		all := make([]graph.NodeID, n)
		for v := range all {
			all[v] = graph.NodeID(v)
		}
		return all, 1, nil
	}
	// Deterministic stride probe, as in expansion.SampledSources.
	stride := n/2 + 1
	for gcd(stride, n) != 1 {
		stride++
	}
	out := make([]graph.NodeID, pivots)
	cur := 0
	for i := range out {
		out[i] = graph.NodeID(cur)
		cur = (cur + stride) % n
	}
	return out, float64(n) / float64(pivots), nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// TopK returns the indices of the k largest values, descending. Ties
// break toward smaller node IDs.
func TopK(values []float64, k int) []graph.NodeID {
	if k > len(values) {
		k = len(values)
	}
	idx := make([]graph.NodeID, len(values))
	for i := range idx {
		idx[i] = graph.NodeID(i)
	}
	// Partial selection sort: k is small in every use here.
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(idx); j++ {
			vi, vj := values[idx[best]], values[idx[j]]
			if vj > vi || (vj == vi && idx[j] < idx[best]) {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	return idx[:k]
}
