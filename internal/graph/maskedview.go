package graph

import (
	"fmt"
	"sort"
)

// MaskedView is a zero-copy view of a substrate graph with some nodes down
// and some edges dropped — the shape a churn/fault schedule produces. Down
// nodes keep their IDs but become isolated (degree 0); dropped edges
// disappear from both endpoints. Degrees and the live-edge count are
// maintained incrementally by the mutators, so measurement never pays a
// rebuild: advancing a churn epoch is Reset + a fresh round of SetAlive /
// DropEdge calls, all O(deg) or cheaper per call.
//
// Mutation must not be concurrent with reads; between mutations the view
// is safe for any number of concurrent readers.
type MaskedView struct {
	g *Graph
	// alive is a node bitmap: bit v set means node v is up.
	alive []uint64
	// drop is an adjacency-slot bitmap over g's CSR adjacency array: bit i
	// set means the directed half-edge stored at adjacency[i] is dropped.
	// DropEdge sets both directions, so the view stays symmetric.
	drop []uint64
	// deg[v] is the live degree of v: neighbors that are alive and reached
	// through a non-dropped slot. Zero for down nodes.
	deg      []int32
	numAlive int
	numEdges int64
}

// NewMaskedView returns a view of g with every node alive and every edge
// present.
func NewMaskedView(g *Graph) *MaskedView {
	n := g.NumNodes()
	mv := &MaskedView{
		g:     g,
		alive: make([]uint64, (n+63)/64),
		drop:  make([]uint64, (len(g.adjacency)+63)/64),
		deg:   make([]int32, n),
	}
	mv.Reset()
	return mv
}

// Reset restores the all-alive, no-drops state in O(n + m/64).
func (mv *MaskedView) Reset() {
	n := mv.g.NumNodes()
	for i := range mv.alive {
		mv.alive[i] = ^uint64(0)
	}
	if rem := n % 64; rem != 0 && len(mv.alive) > 0 {
		mv.alive[len(mv.alive)-1] = (uint64(1) << rem) - 1
	}
	for i := range mv.drop {
		mv.drop[i] = 0
	}
	for v := 0; v < n; v++ {
		mv.deg[v] = int32(mv.g.Degree(NodeID(v)))
	}
	mv.numAlive = n
	mv.numEdges = mv.g.NumEdges()
}

// NumNodes implements View. Node IDs stay dense: down nodes still count,
// they are just isolated.
func (mv *MaskedView) NumNodes() int { return mv.g.NumNodes() }

// NumEdges implements View: the number of live edges (both endpoints alive,
// not dropped).
func (mv *MaskedView) NumEdges() int64 { return mv.numEdges }

// Valid implements View.
func (mv *MaskedView) Valid(v NodeID) bool { return mv.g.Valid(v) }

// Degree implements View: the live degree of v, 0 for down nodes.
func (mv *MaskedView) Degree(v NodeID) int { return int(mv.deg[v]) }

// Alive reports whether node v is up.
func (mv *MaskedView) Alive(v NodeID) bool {
	return mv.alive[uint32(v)>>6]&(1<<(uint32(v)&63)) != 0
}

// NumAlive returns the number of up nodes.
func (mv *MaskedView) NumAlive() int { return mv.numAlive }

func (mv *MaskedView) dropped(slot int64) bool {
	return mv.drop[slot>>6]&(1<<(uint64(slot)&63)) != 0
}

// AppendNeighbors implements View.
func (mv *MaskedView) AppendNeighbors(v NodeID, buf []NodeID) []NodeID {
	if !mv.Alive(v) {
		return buf
	}
	lo, hi := mv.g.offsets[v], mv.g.offsets[v+1]
	for i := lo; i < hi; i++ {
		if w := mv.g.adjacency[i]; mv.Alive(w) && !mv.dropped(i) {
			buf = append(buf, w)
		}
	}
	return buf
}

// VisitEdges implements View, yielding live canonical edges ascending.
func (mv *MaskedView) VisitEdges(visit func(Edge) bool) {
	n := mv.g.NumNodes()
	for v := NodeID(0); int(v) < n; v++ {
		if !mv.Alive(v) || mv.deg[v] == 0 {
			continue
		}
		lo, hi := mv.g.offsets[v], mv.g.offsets[v+1]
		for i := lo; i < hi; i++ {
			w := mv.g.adjacency[i]
			if w <= v {
				continue
			}
			if mv.Alive(w) && !mv.dropped(i) && !visit(Edge{U: v, V: w}) {
				return
			}
		}
	}
}

// VisitSubstrateEdges yields every canonical edge of the substrate graph
// in Graph.VisitEdges order, live or not, each with its drop bit as
// Dropped would report it, read at the edge's adjacency slot instead of
// searched for. visit may drop or restore the edge it is handed; that
// touches only slots the walk has passed or skips.
func (mv *MaskedView) VisitSubstrateEdges(visit func(e Edge, dropped bool) bool) {
	n := mv.g.NumNodes()
	for v := NodeID(0); int(v) < n; v++ {
		lo, hi := mv.g.offsets[v], mv.g.offsets[v+1]
		for i := lo; i < hi; i++ {
			if w := mv.g.adjacency[i]; w > v && !visit(Edge{U: v, V: w}, mv.dropped(i)) {
				return
			}
		}
	}
}

// HasEdge reports whether the live edge (u, v) exists in the view.
func (mv *MaskedView) HasEdge(u, v NodeID) bool {
	if !mv.g.Valid(u) || !mv.g.Valid(v) || !mv.Alive(u) || !mv.Alive(v) {
		return false
	}
	slot, ok := mv.slotOf(u, v)
	return ok && !mv.dropped(slot)
}

// Dropped reports whether the substrate edge (u, v) exists and has been
// dropped by DropEdge — independent of endpoint liveness.
func (mv *MaskedView) Dropped(u, v NodeID) bool {
	if !mv.g.Valid(u) || !mv.g.Valid(v) {
		return false
	}
	slot, ok := mv.slotOf(u, v)
	return ok && mv.dropped(slot)
}

// slotOf binary-searches u's CSR segment for neighbor v.
func (mv *MaskedView) slotOf(u, v NodeID) (int64, bool) {
	lo, hi := mv.g.offsets[u], mv.g.offsets[u+1]
	ns := mv.g.adjacency[lo:hi]
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	if i < len(ns) && ns[i] == v {
		return lo + int64(i), true
	}
	return 0, false
}

// SetAlive marks node v up or down, updating live degrees and the edge
// count incrementally in O(deg(v)). Reviving a node restores every
// non-dropped edge to its live neighbors.
func (mv *MaskedView) SetAlive(v NodeID, alive bool) {
	if mv.Alive(v) == alive {
		return
	}
	if alive {
		mv.alive[uint32(v)>>6] |= 1 << (uint32(v) & 63)
		mv.numAlive++
		lo, hi := mv.g.offsets[v], mv.g.offsets[v+1]
		live := int32(0)
		for i := lo; i < hi; i++ {
			if w := mv.g.adjacency[i]; mv.Alive(w) && w != v && !mv.dropped(i) {
				mv.deg[w]++
				live++
			}
		}
		mv.deg[v] = live
		mv.numEdges += int64(live)
	} else {
		mv.numEdges -= int64(mv.deg[v])
		lo, hi := mv.g.offsets[v], mv.g.offsets[v+1]
		for i := lo; i < hi; i++ {
			if w := mv.g.adjacency[i]; mv.Alive(w) && w != v && !mv.dropped(i) {
				mv.deg[w]--
			}
		}
		mv.deg[v] = 0
		mv.alive[uint32(v)>>6] &^= 1 << (uint32(v) & 63)
		mv.numAlive--
	}
}

// DropEdge removes the substrate edge (u, v) from the view in both
// directions, O(log deg) per endpoint. It reports whether the edge existed
// and was not already dropped; dropping a missing edge is a no-op.
func (mv *MaskedView) DropEdge(u, v NodeID) bool {
	if !mv.g.Valid(u) || !mv.g.Valid(v) || u == v {
		return false
	}
	su, ok := mv.slotOf(u, v)
	if !ok || mv.dropped(su) {
		return false
	}
	sv, ok := mv.slotOf(v, u)
	if !ok {
		// Unreachable on a well-formed symmetric CSR.
		panic(fmt.Sprintf("graph: asymmetric adjacency for edge (%d,%d)", u, v))
	}
	mv.drop[su>>6] |= 1 << (uint64(su) & 63)
	mv.drop[sv>>6] |= 1 << (uint64(sv) & 63)
	if mv.Alive(u) && mv.Alive(v) {
		mv.deg[u]--
		mv.deg[v]--
		mv.numEdges--
	}
	return true
}

// RestoreEdge undoes a DropEdge: the substrate edge (u, v) becomes
// present again in both directions, O(log deg) per endpoint. It reports
// whether the edge existed and was dropped; restoring a present or
// missing edge is a no-op. Degrees and the live-edge count update only
// when both endpoints are alive, mirroring DropEdge.
func (mv *MaskedView) RestoreEdge(u, v NodeID) bool {
	if !mv.g.Valid(u) || !mv.g.Valid(v) || u == v {
		return false
	}
	su, ok := mv.slotOf(u, v)
	if !ok || !mv.dropped(su) {
		return false
	}
	sv, ok := mv.slotOf(v, u)
	if !ok {
		// Unreachable on a well-formed symmetric CSR.
		panic(fmt.Sprintf("graph: asymmetric adjacency for edge (%d,%d)", u, v))
	}
	mv.drop[su>>6] &^= 1 << (uint64(su) & 63)
	mv.drop[sv>>6] &^= 1 << (uint64(sv) & 63)
	if mv.Alive(u) && mv.Alive(v) {
		mv.deg[u]++
		mv.deg[v]++
		mv.numEdges++
	}
	return true
}
