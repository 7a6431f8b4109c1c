package kernels

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/trustnet/trustnet/internal/graph"
)

// BFSBatch advances up to 64 breadth-first searches at once. Each node
// carries one uint64 of per-source state — bit j of visited[v] means
// source j has reached v — so one pass over the frontier's adjacency
// advances every source together: the per-edge work is a single OR
// instead of 64 separate queue pushes, and the adjacency array is
// streamed once per level for the whole batch instead of once per
// source. Level sizes fall out of popcounting the newly set bits, so the
// results are exactly the integer LevelSizes a scalar graph.BFSWorker
// produces, per source, in any batch composition.
//
// Sharing the scan pays only while the lanes' frontiers overlap. On a
// graph whose BFSs run for hundreds of levels they drift apart, and a
// level's scan advances little more than one lane per arc while still
// paying for the masks, the touched list and the harvest. So from level
// loneDepth on, once scanning the frontier would advance fewer than
// loneSharing lanes per arc, every live lane finishes alone: a plain
// queue BFS on its own bit of visited, from the active nodes that carry
// that bit (see finishAlone). LanesAlone reports whether the last Run
// did so. The level sizes are integers, so the hand-over changes none of
// them.
//
// A batch holds three n-word masks (24n bytes of scratch); reuse one
// across many Run calls, or draw from a BFSBatchPool under a fan-out,
// and Rebind it to a new graph of the same size instead of allocating
// another. RunDistances also fills each lane's distance field.
// BFSBatches are not safe for concurrent use; create one per goroutine.
type BFSBatch struct {
	g *graph.Graph
	// front, next and visited are the per-node source masks.
	front, next, visited []uint64
	// active and touched are the sparse node lists for the current and
	// next frontier; after a hand-over, touched is a lone lane's queue.
	active, touched []graph.NodeID
	// alone records whether the last Run handed its lanes over.
	alone bool
}

// The hand-over rule of BFSBatch.Run. Measured in process on a 2-vCPU
// Xeon (Go 1.24.0), one goroutine, 64 sampled cores:
//   - On perfbench large's clustered graph (200 communities of 200,
//     about 440 levels per source) the level-32 frontier advances
//     1.09–1.23 lanes per arc (seeds 1–3). In BenchmarkBFSBatchRun
//     (seed 1, four rounds) the batch run to the end took 158–219 ms,
//     64 scalar BFSs 106–141 ms, and the batch handing over at level 32
//     111–155 ms.
//   - large's BA graph ends after 6 levels and never reaches loneDepth.
//   - The physics-1/2 stand-ins advance 2.74–3.06 and 2.50–2.68 lanes
//     per arc at level 32, so the loneSharing gate keeps them batched
//     there. Handed over at level 32 regardless, they read 7% and 5%
//     slower (medians of 41 runs, three rounds).
const (
	// loneDepth is the first frontier level Run may hand over at. Every
	// batch starts at one lane per arc, since distinct sources share no
	// frontier, and lanes meet only after a few levels: the level-8 scan
	// advances 14–15 lanes per arc on enron and 5.0–5.6 on physics-3.
	loneDepth = 32
	// loneSharing is the lanes advanced per scanned arc below which it
	// does.
	loneSharing = 1.5
)

// NewBFSBatch returns a batch runner bound to g.
func NewBFSBatch(g *graph.Graph) *BFSBatch {
	n := g.NumNodes()
	return &BFSBatch{
		g:       g,
		front:   make([]uint64, n),
		next:    make([]uint64, n),
		visited: make([]uint64, n),
		active:  make([]graph.NodeID, 0, n),
		touched: make([]graph.NodeID, 0, n),
	}
}

// Rebind points the batch at g for the Runs that follow. When g has as
// many nodes as the graph the batch was bound to, the scratch stays (it
// is clean between Runs), so a caller that re-materializes a mutating
// view every epoch keeps one batch across them; otherwise, and on a
// zero BFSBatch, Rebind allocates scratch for g.
func (b *BFSBatch) Rebind(g *graph.Graph) {
	if g.NumNodes() != len(b.front) {
		*b = *NewBFSBatch(g)
		return
	}
	b.g = g
}

// SortByNode orders idx, a list of indices into sources, by source node
// ID and then by index: the order to cut BFSBatch lanes in. The
// community generators number each community's nodes consecutively, so
// lanes cut from consecutive IDs start near each other, keep
// overlapping frontiers for longer and share more of each level's scan:
// on the epochs benchmark's clustered graph, 1,024 sampled sources ran
// as 16 batches in about a quarter of the time they took in sampled
// order (EXPERIMENTS.md, "Batched envelope rebuilds"). BFS is integer,
// so the order changes no level count.
func SortByNode(idx []int, sources []graph.NodeID) {
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(sources[a], sources[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// Run performs one BFS per source (at most BFSBatchWidth of them) and
// returns each source's level-size sequence: out[j][d] is the number of
// nodes at distance d from sources[j], with out[j][0] == 1. The returned
// slices are freshly allocated — unlike graph.BFSWorker.Run they alias
// no batch scratch and stay valid across further Run calls.
func (b *BFSBatch) Run(sources []graph.NodeID) ([][]int64, error) {
	return b.run(sources, nil)
}

// RunDistances is Run that also fills each lane's distance field:
// dist[j][v] becomes the distance of v from sources[j], or -1 where
// lane j never reaches v, exactly the graph.BFSWorker distances. dist
// holds one n-entry slice per source. A lane writes a node's level when
// it discovers the node, in the batched harvest, or as the level closes
// once the lane runs alone; Run's own loops carry none of it.
func (b *BFSBatch) RunDistances(sources []graph.NodeID, dist [][]int32) ([][]int64, error) {
	if len(dist) != len(sources) {
		b.alone = false
		return nil, fmt.Errorf("kernels: bfs batch of %d sources given %d distance fields", len(sources), len(dist))
	}
	for j, d := range dist {
		if len(d) != len(b.front) {
			b.alone = false
			return nil, fmt.Errorf("kernels: distance field %d holds %d nodes, the graph %d", j, len(d), len(b.front))
		}
	}
	return b.run(sources, dist)
}

// run is Run, and RunDistances when dist is non-nil.
func (b *BFSBatch) run(sources []graph.NodeID, dist [][]int32) ([][]int64, error) {
	b.alone = false
	if len(sources) == 0 {
		return nil, fmt.Errorf("kernels: bfs batch needs at least one source")
	}
	if len(sources) > BFSBatchWidth {
		return nil, fmt.Errorf("kernels: bfs batch of %d sources exceeds %d lanes", len(sources), BFSBatchWidth)
	}
	// Validate before touching any scratch, so a failed Run leaves the
	// batch clean for the next one.
	for _, s := range sources {
		if !b.g.Valid(s) {
			return nil, fmt.Errorf("%w: bfs source %d", graph.ErrNodeRange, s)
		}
	}
	levels := make([][]int64, len(sources))
	b.active = b.active[:0]
	for j, s := range sources {
		levels[j] = append(make([]int64, 0, 8), 1)
		if b.front[s] == 0 {
			b.active = append(b.active, s)
		}
		b.front[s] |= 1 << j
		b.visited[s] |= 1 << j
	}
	for j, d := range dist {
		for v := range d {
			d[v] = -1
		}
		d[sources[j]] = 0
	}

	depth := 0
	for len(b.active) > 0 {
		if depth >= loneDepth && b.drifted() {
			b.finishAlone(levels, dist)
			b.alone = true
			break
		}
		depth++
		// Scatter: push every active node's source mask to its neighbors.
		touched := b.touched[:0]
		for _, v := range b.active {
			fv := b.front[v]
			for _, u := range b.g.Neighbors(v) {
				if b.next[u] == 0 {
					touched = append(touched, u)
				}
				b.next[u] |= fv
			}
		}
		// The old frontier is consumed; clear its masks before harvest
		// so front can hold the new frontier.
		for _, v := range b.active {
			b.front[v] = 0
		}
		// Harvest: keep only first-time discoveries, popcount them into
		// the per-source level sizes, and form the next frontier.
		b.active = b.active[:0]
		if dist != nil {
			b.harvestDistances(touched, levels, dist, depth)
			b.touched = touched[:0]
			continue
		}
		for _, u := range touched {
			discovered := b.next[u] &^ b.visited[u]
			b.next[u] = 0
			if discovered == 0 {
				continue
			}
			b.visited[u] |= discovered
			b.front[u] = discovered
			b.active = append(b.active, u)
			for rem := discovered; rem != 0; rem &= rem - 1 {
				j := bits.TrailingZeros64(rem)
				if len(levels[j]) == depth {
					levels[j] = append(levels[j], 0)
				}
				levels[j][depth]++
			}
		}
		b.touched = touched[:0]
	}

	// front and next are zero again by construction (every frontier is
	// cleared when consumed or handed over, every touched mask on
	// harvest); visited holds every reached node and needs one memclr
	// per Run, amortized over the whole batch.
	for i := range b.visited {
		b.visited[i] = 0
	}
	return levels, nil
}

// harvestDistances is Run's harvest for RunDistances: the same pass over
// the touched nodes, which also writes depth into the distance field of
// every lane that discovers the node.
func (b *BFSBatch) harvestDistances(touched []graph.NodeID, levels [][]int64, dist [][]int32, depth int) {
	d := int32(depth)
	for _, u := range touched {
		discovered := b.next[u] &^ b.visited[u]
		b.next[u] = 0
		if discovered == 0 {
			continue
		}
		b.visited[u] |= discovered
		b.front[u] = discovered
		b.active = append(b.active, u)
		for rem := discovered; rem != 0; rem &= rem - 1 {
			j := bits.TrailingZeros64(rem)
			if len(levels[j]) == depth {
				levels[j] = append(levels[j], 0)
			}
			levels[j][depth]++
			dist[j][u] = d
		}
	}
}

// LanesAlone reports whether the last Run handed its live lanes over to
// lone scans (see BFSBatch).
func (b *BFSBatch) LanesAlone() bool { return b.alone }

// drifted reports whether scanning the frontier would advance fewer
// than loneSharing lanes per arc: over the active nodes, the sum of
// popcount(front[v])·deg(v) falls below loneSharing times the sum of
// deg(v). It is a pass of its own so that the level loop, which shallow
// batches spend all their time in, carries no extra work.
func (b *BFSBatch) drifted() bool {
	var arcs, laneArcs int
	for _, v := range b.active {
		d := b.g.Degree(v)
		arcs += d
		laneArcs += bits.OnesCount64(b.front[v]) * d
	}
	return float64(laneArcs) < loneSharing*float64(arcs)
}

// finishAlone runs every lane that is still live to its end on its own.
// Lane j's frontier is the active nodes whose front mask carries bit j;
// it scans level by level on bit j of visited, with touched as its
// queue, and appends its own level sizes. A lane enqueues a node at most
// once, so the queue never outgrows touched's n slots. With dist, each
// closed level writes its distance into the lane's field for the nodes
// the level queued. On return front is zero and active is empty.
func (b *BFSBatch) finishAlone(levels [][]int64, dist [][]int32) {
	for j := range levels {
		bit := uint64(1) << j
		queue := b.touched[:0]
		for _, v := range b.active {
			if b.front[v]&bit != 0 {
				queue = append(queue, v)
			}
		}
		for head := 0; head < len(queue); {
			end := len(queue)
			for ; head < end; head++ {
				for _, u := range b.g.Neighbors(queue[head]) {
					if b.visited[u]&bit == 0 {
						b.visited[u] |= bit
						queue = append(queue, u)
					}
				}
			}
			if found := len(queue) - end; found > 0 {
				if dist != nil {
					d := int32(len(levels[j]))
					for _, u := range queue[end:] {
						dist[j][u] = d
					}
				}
				levels[j] = append(levels[j], int64(found))
			}
		}
		b.touched = queue[:0]
	}
	for _, v := range b.active {
		b.front[v] = 0
	}
	b.active = b.active[:0]
}

// BFSBatchPool amortizes BFSBatch scratch (three n-word masks and two
// frontier lists) across goroutines, mirroring graph.BFSPool for the
// scalar workers. Results returned by Run are fresh allocations, so —
// unlike scalar BFSResults — they remain valid after the batch is
// returned to the pool.
type BFSBatchPool struct {
	pool sync.Pool
	gets atomic.Int64
	news atomic.Int64
}

// NewBFSBatchPool returns a pool of batch runners bound to g.
func NewBFSBatchPool(g *graph.Graph) *BFSBatchPool {
	p := &BFSBatchPool{}
	p.pool.New = func() any {
		p.news.Add(1)
		return NewBFSBatch(g)
	}
	return p
}

// Get returns a batch runner for exclusive use until Put.
func (p *BFSBatchPool) Get() *BFSBatch {
	p.gets.Add(1)
	return p.pool.Get().(*BFSBatch)
}

// Stats reports how many Gets the pool has served and how many built a
// fresh runner; gets - news is the number of scratch reuses ("pool
// hits") the observability layer tracks, mirroring graph.BFSPool.Stats.
func (p *BFSBatchPool) Stats() (gets, news int64) {
	return p.gets.Load(), p.news.Load()
}

// Put returns a batch runner to the pool.
func (p *BFSBatchPool) Put(b *BFSBatch) { p.pool.Put(b) }
