package graph

// Rows is a read-only CSR fragment: the sorted neighbor lists of a
// contiguous node range (see Range), carrying global node IDs. A Graph is
// one Rows over all its nodes (Graph.Rows), and Slice cuts it into row
// spans, so a kernel that splits its work by row range reads every span
// through the same inlined slice arithmetic — no interface call per row.
//
// offsets is global-valued: it indexes the whole graph's adjacency, so a
// span is sliced without rewriting the offsets.
type Rows struct {
	base    NodeID
	offsets []int64  // len rows+1, global arc offsets
	adj     []NodeID // the whole graph's arcs, global neighbor IDs
}

// Rows returns the whole graph as one CSR fragment aliasing its storage.
func (g *Graph) Rows() Rows {
	return Rows{offsets: g.offsets, adj: g.adjacency}
}

// Range returns the node range [lo, hi) the fragment covers.
func (r Rows) Range() (lo, hi NodeID) {
	if len(r.offsets) == 0 {
		return r.base, r.base
	}
	return r.base, r.base + NodeID(len(r.offsets)-1)
}

// Slice returns the sub-fragment covering rows [lo, hi), which must lie
// inside Range.
func (r Rows) Slice(lo, hi NodeID) Rows {
	return Rows{base: lo, offsets: r.offsets[lo-r.base : hi-r.base+1], adj: r.adj}
}

// CSR returns the fragment's raw arrays, aliasing its storage, for
// kernels whose inner loops cannot call Neighbors per row: row base+i's
// neighbors are adj[offsets[i] : offsets[i+1]], and len(offsets) is the
// row count plus one. None of them may be modified.
func (r Rows) CSR() (base NodeID, offsets []int64, adj []NodeID) {
	return r.base, r.offsets, r.adj
}

// Degree returns deg(v) for a row v inside Range.
func (r Rows) Degree(v NodeID) int {
	i := v - r.base
	return int(r.offsets[i+1] - r.offsets[i])
}

// Neighbors returns the sorted neighbor list of a row v inside Range,
// aliasing the fragment's storage; it must not be modified.
func (r Rows) Neighbors(v NodeID) []NodeID {
	i := v - r.base
	return r.adj[r.offsets[i]:r.offsets[i+1]]
}
