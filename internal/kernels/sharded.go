package kernels

import (
	"context"
	"fmt"
	"math/bits"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/parallel"
)

// The sharded kernels run WalkBlock's and BFSBatch's computations over a
// graph.ShardedGraph with one worker per shard. Each shard computes only
// the state of the rows it owns, reading any row's current value but
// writing nothing outside its node range, so the fan-out needs no locks
// and no atomics — and the results are bit-for-bit identical to the
// monolithic kernels at any shard count.
//
// The walk needs no argument of its own: its step is WalkBlock's dense
// gather (shareRows, then gatherRows) run over each shard's rows instead
// of the whole CSR, and a row's sum does not depend on which range it
// was computed in. The sparse-frontier path WalkBlock starts with is a
// scatter and has no sharded form; the gather matches it bit for bit
// from the first step (see the comment above shareRows). BFS state is
// integer bitsets combined with OR and popcount sums, which are
// order-independent, so its sharding needs no ordering care beyond
// accumulating the per-shard level counts in shard order.

// ShardedWalkBlock evolves a block of exact walk distributions over a
// sharded graph, one worker per shard. It mirrors WalkBlock's API and
// its bits: column j after k steps equals WalkBlock's column j after k
// steps on the same (monolithic) topology.
//
// A ShardedWalkBlock is not safe for concurrent use; Step itself fans
// out internally. A Step that returns an error (cancellation) leaves the
// block unusable.
type ShardedWalkBlock struct {
	sg     *graph.ShardedGraph
	width  int
	stride int
	lazy   bool
	// cur holds the column-blocked n×stride distributions (WalkBlock's
	// layout), updated in place; share holds the share rows of the step
	// in progress. Shard s only ever writes rows in its node range of
	// either.
	cur, share []float64
	// tvd holds DistancesTo's running sums on the vector path.
	tvd  []float64
	step int
}

// NewShardedWalkBlock returns a block with column j concentrated at
// sources[j], with the same validation as NewWalkBlock.
func NewShardedWalkBlock(sg *graph.ShardedGraph, sources []graph.NodeID, lazy bool) (*ShardedWalkBlock, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("kernels: walk block needs at least one source")
	}
	if sg.NumEdges() == 0 {
		return nil, fmt.Errorf("kernels: graph has no edges")
	}
	n := sg.NumNodes()
	st := rowStride(len(sources))
	wb := &ShardedWalkBlock{
		sg:     sg,
		width:  len(sources),
		stride: st,
		lazy:   lazy,
		cur:    make([]float64, n*st),
		share:  make([]float64, n*st),
		tvd:    make([]float64, st),
	}
	for j, s := range sources {
		if !sg.Valid(s) {
			return nil, fmt.Errorf("kernels: source %d out of range", s)
		}
		if sg.Degree(s) == 0 {
			return nil, fmt.Errorf("kernels: source %d is isolated", s)
		}
		wb.cur[int(s)*st+j] = 1
	}
	return wb, nil
}

// Width returns the number of source columns in the block.
func (wb *ShardedWalkBlock) Width() int { return wb.width }

// StepCount returns the number of steps taken so far.
func (wb *ShardedWalkBlock) StepCount() int { return wb.step }

// Step advances every column one walk step (p ← pP, or p ← p(I+P)/2
// lazy) with one worker per shard: every shard writes its share rows,
// then every shard gathers its rows in place.
func (wb *ShardedWalkBlock) Step(ctx context.Context, workers int) error {
	shards := wb.sg.NumShards()
	err := parallel.ForEach(ctx, workers, shards, func(_, s int) error {
		shareRows(wb.sg.Shard(s), wb.cur, wb.share, wb.width, wb.stride, wb.lazy)
		return nil
	})
	if err != nil {
		return err
	}
	err = parallel.ForEach(ctx, workers, shards, func(_, s int) error {
		gatherRows(wb.sg.Shard(s), wb.cur, wb.share, wb.stride, wb.lazy)
		return nil
	})
	if err != nil {
		return err
	}
	wb.step++
	return nil
}

// DistancesTo writes each column's total variation distance to target
// into out, with the same sequential ascending-node fold as
// WalkBlock.DistancesTo.
func (wb *ShardedWalkBlock) DistancesTo(target []float64, out []float64) error {
	return distancesTo(wb.cur, wb.width, wb.stride, target, out, wb.tvd)
}

// Column copies column j's current distribution into dst (allocated when
// nil) and returns it.
func (wb *ShardedWalkBlock) Column(j int, dst []float64) []float64 {
	return column(wb.cur, wb.stride, j, dst)
}

// shardBFS is one shard's scratch for ShardedBFSBatch.
type shardBFS struct {
	touched []graph.NodeID
	active  []graph.NodeID
	masks   []uint64
	counts  [BFSBatchWidth]int64
}

// ShardedBFSBatch advances up to BFSBatchWidth breadth-first searches at
// once over a sharded graph. Each superstep every shard scans the global
// frontier's adjacency and keeps only the arcs landing in its own node
// range (frontier exchange by filtering, not by message passing), so all
// mask writes stay shard-local. Level sizes are integers, so the results
// equal BFSBatch.Run on the same topology at any shard count.
//
// A ShardedBFSBatch is not safe for concurrent use; Run fans out
// internally. A Run that returns an error leaves the scratch dirty;
// discard the batch.
type ShardedBFSBatch struct {
	sg            *graph.ShardedGraph
	next, visited []uint64
	// active and masks are the aligned frontier list: masks[i] holds the
	// source bits that reached active[i] last superstep. Carrying the
	// frontier as a list (instead of BFSBatch's front array) means a node
	// rediscovered by new lanes while it is still in the old frontier
	// needs no clear-before-harvest ordering across shards.
	active []graph.NodeID
	masks  []uint64
	sh     []shardBFS
}

// NewShardedBFSBatch returns a batch runner bound to sg.
func NewShardedBFSBatch(sg *graph.ShardedGraph) *ShardedBFSBatch {
	n := sg.NumNodes()
	return &ShardedBFSBatch{
		sg:      sg,
		next:    make([]uint64, n),
		visited: make([]uint64, n),
		sh:      make([]shardBFS, sg.NumShards()),
	}
}

// Run performs one BFS per source and returns each source's level-size
// sequence, exactly as BFSBatch.Run does.
func (b *ShardedBFSBatch) Run(ctx context.Context, sources []graph.NodeID, workers int) ([][]int64, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("kernels: bfs batch needs at least one source")
	}
	if len(sources) > BFSBatchWidth {
		return nil, fmt.Errorf("kernels: bfs batch of %d sources exceeds %d lanes", len(sources), BFSBatchWidth)
	}
	for _, s := range sources {
		if !b.sg.Valid(s) {
			return nil, fmt.Errorf("%w: bfs source %d", graph.ErrNodeRange, s)
		}
	}
	levels := make([][]int64, len(sources))
	b.active, b.masks = b.active[:0], b.masks[:0]
	for j, s := range sources {
		levels[j] = append(make([]int64, 0, 8), 1)
		b.visited[s] |= 1 << j
		found := false
		for i, v := range b.active {
			if v == s {
				b.masks[i] |= 1 << j
				found = true
				break
			}
		}
		if !found {
			b.active = append(b.active, s)
			b.masks = append(b.masks, 1<<j)
		}
	}

	shards := b.sg.NumShards()
	depth := 0
	for len(b.active) > 0 {
		depth++
		err := parallel.ForEach(ctx, workers, shards, func(_, s int) error {
			sh := &b.sh[s]
			lo, hi := b.sg.Range(s)
			// Scatter, filtered to owned rows: every shard walks the whole
			// frontier's adjacency but keeps only arcs it owns.
			touched := sh.touched[:0]
			for i, v := range b.active {
				fv := b.masks[i]
				for _, u := range b.sg.Neighbors(v) {
					if u < lo || u >= hi {
						continue
					}
					if b.next[u] == 0 {
						touched = append(touched, u)
					}
					b.next[u] |= fv
				}
			}
			// Harvest shard-locally into this shard's frontier fragment.
			sh.active, sh.masks = sh.active[:0], sh.masks[:0]
			clear(sh.counts[:len(sources)])
			for _, u := range touched {
				discovered := b.next[u] &^ b.visited[u]
				b.next[u] = 0
				if discovered == 0 {
					continue
				}
				b.visited[u] |= discovered
				sh.active = append(sh.active, u)
				sh.masks = append(sh.masks, discovered)
				for rem := discovered; rem != 0; rem &= rem - 1 {
					sh.counts[bits.TrailingZeros64(rem)]++
				}
			}
			sh.touched = touched[:0]
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Splice the shard frontiers and counts together in shard order —
		// deterministic at any worker count because nothing above depended
		// on scheduling.
		b.active, b.masks = b.active[:0], b.masks[:0]
		for s := range b.sh {
			sh := &b.sh[s]
			b.active = append(b.active, sh.active...)
			b.masks = append(b.masks, sh.masks...)
			for j := range levels {
				if c := sh.counts[j]; c != 0 {
					if len(levels[j]) == depth {
						levels[j] = append(levels[j], 0)
					}
					levels[j][depth] += c
				}
			}
		}
	}
	for i := range b.visited {
		b.visited[i] = 0
	}
	return levels, nil
}
