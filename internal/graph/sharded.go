package graph

import (
	"fmt"
	"sort"
)

// ShardedGraph partitions a graph's node range into contiguous,
// arc-balanced shards, each a CSR fragment whose adjacency aliases the
// substrate where possible (CSR-backed views, including mmap-backed
// Mapped graphs, are sliced zero-copy; other views are materialized
// shard by shard). Shard s owns the rows [Range(s)); neighbor lists
// still carry global node IDs, so cross-shard edges need no translation
// — a per-shard worker reads any row's neighbors but writes only state
// it owns, which is what makes the sharded kernels race-free and
// bit-identical to the monolithic ones (see internal/kernels).
//
// ShardedGraph implements View and NeighborSlicer but deliberately NOT
// CSRSource: dispatch sites that ask AsCSR get false and either take the
// per-shard path (walk, expansion, spectral) or traverse generically via
// Adj (k-core, BFS, connectivity), so measurements never silently flatten
// the shards back into one array.
type ShardedGraph struct {
	n      int
	m      int64
	starts []NodeID // len shards+1; shard s owns [starts[s], starts[s+1])
	shards []Rows
}

// NewSharded partitions v into the given number of contiguous node-range
// shards, balanced by arc count. Shards must be >= 1; ranges may be
// empty when shards exceeds the node count. CSR-backed views are sliced
// zero-copy.
func NewSharded(v View, shards int) (*ShardedGraph, error) {
	if shards < 1 {
		return nil, fmt.Errorf("graph: sharded graph needs >= 1 shard, got %d", shards)
	}
	n := v.NumNodes()
	m := v.NumEdges()
	sg := &ShardedGraph{n: n, m: m}

	// Global offsets: either aliased from the CSR substrate or rebuilt
	// from one Degree pass (O(n), no adjacency copy yet).
	var offsets []int64
	var adjacency []NodeID // nil when the substrate is not CSR-backed
	if g, ok := AsCSR(v); ok {
		offsets = g.offsets
		adjacency = g.adjacency
	} else {
		offsets = make([]int64, n+1)
		for u := 0; u < n; u++ {
			offsets[u+1] = offsets[u] + int64(v.Degree(NodeID(u)))
		}
	}
	arcs := offsets[n]

	// Arc-balanced contiguous ranges: boundary s is the first node whose
	// cumulative arc count reaches s/shards of the total, found by binary
	// search over the monotone offsets.
	sg.starts = make([]NodeID, shards+1)
	for s := 1; s < shards; s++ {
		target := arcs * int64(s) / int64(shards)
		lo := sort.Search(n+1, func(i int) bool { return offsets[i] >= target })
		if lo < int(sg.starts[s-1]) {
			lo = int(sg.starts[s-1])
		}
		sg.starts[s] = NodeID(lo)
	}
	sg.starts[shards] = NodeID(n)

	sg.shards = make([]Rows, shards)
	for s := 0; s < shards; s++ {
		lo, hi := int(sg.starts[s]), int(sg.starts[s+1])
		sc := Rows{
			base:    NodeID(lo),
			arcBase: offsets[lo],
			offsets: offsets[lo : hi+1],
		}
		if adjacency != nil {
			sc.adj = adjacency[offsets[lo]:offsets[hi]]
		} else {
			sc.adj = make([]NodeID, 0, offsets[hi]-offsets[lo])
			for u := lo; u < hi; u++ {
				sc.adj = v.AppendNeighbors(NodeID(u), sc.adj)
			}
			if int64(len(sc.adj)) != offsets[hi]-offsets[lo] {
				return nil, fmt.Errorf("graph: view degrees disagree with neighbor lists in shard %d", s)
			}
		}
		sg.shards[s] = sc
	}
	return sg, nil
}

// AsSharded returns the ShardedGraph behind v, unwrapping nothing: only
// a *ShardedGraph itself reports true. Dispatch sites use it the way
// they use AsCSR.
func AsSharded(v View) (*ShardedGraph, bool) {
	sg, ok := v.(*ShardedGraph)
	return sg, ok
}

// NumShards returns the shard count.
func (sg *ShardedGraph) NumShards() int { return len(sg.shards) }

// Range returns shard s's node range [lo, hi).
func (sg *ShardedGraph) Range(s int) (lo, hi NodeID) {
	return sg.starts[s], sg.starts[s+1]
}

// Shard returns shard s's CSR fragment, for kernels that work one shard
// per worker without a ShardOf lookup per row.
func (sg *ShardedGraph) Shard(s int) Rows { return sg.shards[s] }

// ShardOf returns the shard owning node v.
func (sg *ShardedGraph) ShardOf(v NodeID) int {
	// Binary search over the shard boundaries: the last start <= v.
	lo, hi := 0, len(sg.shards)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if sg.starts[mid] <= v {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// NumNodes implements View.
func (sg *ShardedGraph) NumNodes() int { return sg.n }

// NumEdges implements View.
func (sg *ShardedGraph) NumEdges() int64 { return sg.m }

// Valid implements View.
func (sg *ShardedGraph) Valid(v NodeID) bool { return v >= 0 && int(v) < sg.n }

// Degree implements View.
func (sg *ShardedGraph) Degree(v NodeID) int {
	return sg.shards[sg.ShardOf(v)].Degree(v)
}

// Neighbors returns the sorted (global-ID) neighbor list of v, aliasing
// shard storage; it must not be modified.
func (sg *ShardedGraph) Neighbors(v NodeID) []NodeID {
	return sg.shards[sg.ShardOf(v)].Neighbors(v)
}

// AppendNeighbors implements View.
func (sg *ShardedGraph) AppendNeighbors(v NodeID, buf []NodeID) []NodeID {
	return append(buf, sg.Neighbors(v)...)
}

// VisitEdges implements View, yielding canonical edges ascending.
func (sg *ShardedGraph) VisitEdges(visit func(Edge) bool) {
	for v := NodeID(0); int(v) < sg.n; v++ {
		for _, w := range sg.Neighbors(v) {
			if v < w && !visit(Edge{U: v, V: w}) {
				return
			}
		}
	}
}

var (
	_ View           = (*ShardedGraph)(nil)
	_ NeighborSlicer = (*ShardedGraph)(nil)
)
