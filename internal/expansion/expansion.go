// Package expansion implements the graph-expansion measurement of §III-D
// of the paper, in the restricted connected-set form GateKeeper assumes:
// for every node as "core", a breadth-first-search tree is grown; the
// envelope Env_i is all nodes within distance i of the core, its expansion
// Exp_i is the next BFS level, and the expansion factor is
//
//	α_i = L_{i+1} / Σ_{j<=i} L_j        (Eq. 4)
//
// Aggregating (|Env_i|, |Exp_i|) pairs over all cores by unique envelope
// size gives the min/mean/max scatter of Figure 3; aggregating α over all
// sets of equal size gives the expected-expansion curves of Figure 4.
//
// Complexity: one core's BFS is O(m); the full measurement over k cores
// is O(k·m) — the paper's exact O(nm) when every node is a core. The
// cores advance 64 at a time through the bit-parallel BFS kernel
// (kernels.BFSBatch, uint64 frontier/visited masks, exact integer level
// sizes), cutting the adjacency scans by up to ~64×. Batches are cut
// from the cores in node-ID order (kernels.SortByNode), so cores of one
// community share a batch; on deep graphs, where the lanes' frontiers
// drift apart anyway, a batch finishes its live lanes one at a time
// (expansion.bfs.lane_handovers counts such batches).
// Batches fan out across parallel workers for O(k·m/(64·workers)) wall
// clock; each core's envelope observations are collected independently
// and folded into the stats.KeyedSummary aggregates sequentially in
// source order, so the result is bit-for-bit identical at any worker
// count (BFS is integer — batch composition cannot perturb a single
// level count).
package expansion

import (
	"context"
	"fmt"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/kernels"
	"github.com/trustnet/trustnet/internal/obs"
	"github.com/trustnet/trustnet/internal/parallel"
	"github.com/trustnet/trustnet/internal/stats"
)

// Observability instruments for the expansion measurement, resolved once
// at init. Counting happens per core / per batch / per Measure call, not
// inside the BFS inner loops, so the kernels are untouched and results
// stay bit-identical with metrics enabled.
var (
	obsBatches       = obs.Default().Counter("expansion.bfs.batches")
	obsLaneHandovers = obs.Default().Counter("expansion.bfs.lane_handovers")
	obsPoolHits      = obs.Default().Counter("expansion.pool.hits")
	obsPoolMisses    = obs.Default().Counter("expansion.pool.misses")
	obsResumed       = obs.Default().Counter("expansion.resumed_sources")
)

// Config controls a measurement run.
type Config struct {
	// Sources lists the BFS cores. nil means every node (the paper's
	// exact O(nm) measurement); SampledSources draws a seeded uniform
	// subset for graphs where that is too slow.
	Sources []graph.NodeID
	// Workers is the parallelism; defaults to GOMAXPROCS when <= 0. The
	// all-cores measurement is O(nm) total, embarrassingly parallel per
	// batch of cores.
	Workers int
	// Resume seeds the measurement with level sequences measured
	// earlier over the *same* source list: cores whose checkpoint entry
	// is non-nil are not re-measured. The incremental maintainer folds
	// its repaired levels through a full checkpoint. A checkpoint whose
	// sources differ from this run's is stale state and an error.
	Resume *Checkpoint
}

// Checkpoint is the per-core state of an expansion measurement: the BFS
// cores and, per core, the level-size sequence (nil for cores not yet
// measured). BFS levels are integers, so a measurement resumed from a
// checkpoint reproduces the uninterrupted result bit-for-bit.
type Checkpoint struct {
	Sources []graph.NodeID `json:"sources"`
	Levels  [][]int64      `json:"levels"`
}

// matches reports whether the checkpoint belongs to a measurement over
// these sources.
func (c *Checkpoint) matches(sources []graph.NodeID) bool {
	if len(c.Sources) != len(sources) || len(c.Levels) != len(sources) {
		return false
	}
	for i, s := range c.Sources {
		if s != sources[i] {
			return false
		}
	}
	return true
}

// Result aggregates an expansion measurement across sources.
type Result struct {
	// NeighborsBySetSize maps each observed envelope size |Env| to the
	// min/mean/max of |Exp| over all (core, i) pairs with that envelope
	// size — the Figure 3 scatter.
	NeighborsBySetSize *stats.KeyedSummary
	// FactorBySetSize maps envelope size to the summary of expansion
	// factors α — the Figure 4 curve uses its means.
	FactorBySetSize *stats.KeyedSummary
	// Sources is the number of configured BFS cores.
	Sources int
	// Partial is always false: Measure returns a result only when every
	// core was measured. The field stays because the benchmark harness
	// (perfbench/epochs.go) still reads it.
	Partial bool
	// MaxEccentricity is the largest BFS depth observed (a diameter lower
	// bound when all nodes are used as sources).
	MaxEccentricity int

	// sourceList and levels retain the per-core state Checkpoint needs.
	sourceList []graph.NodeID
	levels     [][]int64
}

// Checkpoint returns the result's resumable state. The checkpoint
// aliases the result's internal slices — serialize it before reuse.
func (r *Result) Checkpoint() *Checkpoint {
	return &Checkpoint{Sources: r.sourceList, Levels: r.levels}
}

// VertexExpansion returns the minimum observed expansion factor over every
// measured envelope with size at most half the graph — the sampled,
// connected-set analogue of the vertex expansion α in Eq. 3.
func (r *Result) VertexExpansion(n int) (float64, bool) {
	found := false
	best := 0.0
	for _, size := range r.FactorBySetSize.Keys() {
		if size > int64(n)/2 {
			continue
		}
		s, ok := r.FactorBySetSize.Get(size)
		if !ok || s.Count() == 0 {
			continue
		}
		if !found || s.Min() < best {
			best = s.Min()
			found = true
		}
	}
	return best, found
}

// Measure runs the envelope measurement from every configured source
// (every node when cfg.Sources is nil). An empty, non-nil cfg.Sources is
// an error. The context cancels the run early; a cancelled run returns
// ctx.Err() and no result.
//
// It accepts any graph.View. A non-CSR view is materialized once
// (graph.Materialize, cached by the view) and the copy is amortized
// across all cores. Results are identical either way.
func Measure(ctx context.Context, g graph.View, cfg Config) (*Result, error) {
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("expansion: empty graph")
	}
	sources := cfg.Sources
	if sources == nil {
		sources = make([]graph.NodeID, n)
		for v := range sources {
			sources[v] = graph.NodeID(v)
		}
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("expansion: no cores to measure")
	}
	for _, s := range sources {
		if !g.Valid(s) {
			return nil, fmt.Errorf("expansion: source %d out of range", s)
		}
	}
	ctx, span := obs.StartSpan(ctx, "expansion.measure")
	defer span.End()

	// levels[i] belongs to sources[i]; resumed cores are merged up front
	// and todo holds the indices still to measure. Each worker task owns
	// distinct level slots, and parallel.ForEach joins every worker
	// before returning.
	levels := make([][]int64, len(sources))
	if cfg.Resume != nil {
		if !cfg.Resume.matches(sources) {
			return nil, fmt.Errorf("expansion: resume checkpoint does not match this source list")
		}
		copy(levels, cfg.Resume.Levels)
		for _, ls := range levels {
			if ls != nil {
				obsResumed.Inc()
			}
		}
	}
	todo := make([]int, 0, len(sources))
	for i, ls := range levels {
		if ls == nil {
			todo = append(todo, i)
		}
	}

	// Cores run 64 per task through the bit-parallel kernel, cut in
	// node-ID order (kernels.SortByNode). A level sequence is everything
	// the fold needs, and the fold below runs in source order, so the
	// keyed summaries are bit-for-bit identical at any worker count and in
	// any batch composition.
	if len(todo) > 0 {
		kernels.SortByNode(todo, sources)
		todoSources := make([]graph.NodeID, len(todo))
		for k, i := range todo {
			todoSources[k] = sources[i]
		}
		blocks := parallel.Blocks(len(todo), kernels.BFSBatchWidth)
		obsBatches.Add(int64(len(blocks)))
		pool := kernels.NewBFSBatchPool(graph.Materialize(g))
		defer func() {
			gets, news := pool.Stats()
			obsPoolHits.Add(gets - news)
			obsPoolMisses.Add(news)
		}()
		if err := parallel.ForEach(ctx, cfg.Workers, len(blocks), func(_, b int) error {
			batch := pool.Get()
			defer pool.Put(batch)
			part, err := batch.Run(todoSources[blocks[b].Start:blocks[b].End])
			if err != nil {
				return err
			}
			if batch.LanesAlone() {
				obsLaneHandovers.Inc()
			}
			for j, ls := range part {
				levels[todo[blocks[b].Start+j]] = ls
			}
			return nil
		}); err != nil {
			return nil, fmt.Errorf("expansion: %w", err)
		}
	}

	res := &Result{
		NeighborsBySetSize: stats.NewKeyedSummary(),
		FactorBySetSize:    stats.NewKeyedSummary(),
		Sources:            len(sources),
		sourceList:         sources,
		levels:             levels,
	}
	for _, ls := range levels {
		if ecc := len(ls) - 1; ecc > res.MaxEccentricity {
			res.MaxEccentricity = ecc
		}
		// For each depth i with a non-empty next level, the envelope is
		// the first i+1 levels and the expansion is level i+1.
		var envelope int64
		for i := 0; i+1 < len(ls); i++ {
			envelope += ls[i]
			next := ls[i+1]
			res.NeighborsBySetSize.Add(envelope, float64(next))
			res.FactorBySetSize.Add(envelope, float64(next)/float64(envelope))
		}
	}
	return res, nil
}

// SampledSources returns k seeded uniform distinct sources for large
// graphs where the exact O(nm) measurement is too slow. It shares the
// seeded sampler (graph.SampleNodes) with walk.SampleSources so both
// measurements draw comparable source sets from one root seed; BFS cores
// may be isolated nodes, so no degree filter is applied.
func SampledSources(g graph.View, k int, seed int64) ([]graph.NodeID, error) {
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("expansion: empty graph")
	}
	out, err := graph.SampleNodes(g, k, seed, false)
	if err != nil {
		return nil, fmt.Errorf("expansion: %w", err)
	}
	return out, nil
}
