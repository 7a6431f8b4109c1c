package kernels

import (
	"fmt"
	"math"
	"sort"

	"github.com/trustnet/trustnet/internal/graph"
)

// WalkBlock evolves a block of B exact walk distributions simultaneously.
// The state is a column-blocked n×B buffer: node v's B per-source
// probabilities are contiguous at [v·B, (v+1)·B), so one pass over the
// CSR adjacency advances all B sources — the per-edge work loads each
// neighbor list once per step instead of once per source per step.
//
// The propagation order is the same ascending-node, CSR-neighbor order as
// walk.Distribution.Step, and each column only ever receives additions
// derived from its own source, so every column is bit-for-bit identical
// to the per-source dense loop at any block width: nodes whose mass is
// zero in some column contribute an exact +0.0 there, which cannot
// change the bits of the non-negative partial sums a walk produces.
//
// Early steps use a sparse-frontier fast path: only nodes whose block
// row is (possibly) nonzero are propagated, and only rows touched by the
// previous step are re-zeroed, so a step costs O(edges incident to the
// frontier · B) instead of O((n+m)·B). Once the frontier covers more
// than half the graph the block switches permanently to the dense path,
// whose straight-line scan has the smaller constant.
//
// WalkBlocks are not safe for concurrent use; create one per goroutine.
type WalkBlock struct {
	g     *graph.Graph
	width int
	lazy  bool
	// cur and next are the column-blocked n×width probability buffers.
	cur, next []float64
	// support lists the nodes with a (possibly) nonzero row in cur, in
	// ascending order. nil means dense mode: every node is scanned and
	// the fast path is disabled for the rest of the block's life.
	support []graph.NodeID
	// stale lists the rows of next still holding values from two steps
	// ago; only those need zeroing before the next propagation.
	stale []graph.NodeID
	// mark is the first-touch scratch for building the next support list.
	mark  []bool
	share []float64
	step  int
}

// NewWalkBlock returns a block with column j concentrated at sources[j].
// The block width is len(sources): walk.MeasureMixing passes at most
// DefaultBlockWidth, but any width works. Sources must be valid
// non-isolated nodes of a graph with at least one edge, exactly as
// walk.NewDistribution requires.
func NewWalkBlock(g *graph.Graph, sources []graph.NodeID, lazy bool) (*WalkBlock, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("kernels: walk block needs at least one source")
	}
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("kernels: graph has no edges")
	}
	n := g.NumNodes()
	b := len(sources)
	wb := &WalkBlock{
		g:     g,
		width: b,
		lazy:  lazy,
		cur:   make([]float64, n*b),
		next:  make([]float64, n*b),
		mark:  make([]bool, n),
		share: make([]float64, b),
	}
	for j, s := range sources {
		if !g.Valid(s) {
			return nil, fmt.Errorf("kernels: source %d out of range", s)
		}
		if g.Degree(s) == 0 {
			return nil, fmt.Errorf("kernels: source %d is isolated", s)
		}
		wb.cur[int(s)*b+j] = 1
		if !wb.mark[s] {
			wb.mark[s] = true
			wb.support = append(wb.support, s)
		}
	}
	sort.Slice(wb.support, func(i, j int) bool { return wb.support[i] < wb.support[j] })
	for _, s := range wb.support {
		wb.mark[s] = false
	}
	return wb, nil
}

// Width returns the number of source columns in the block.
func (wb *WalkBlock) Width() int { return wb.width }

// StepCount returns the number of steps taken so far.
func (wb *WalkBlock) StepCount() int { return wb.step }

// Dense reports whether the block has handed over from the
// sparse-frontier fast path to the permanent dense scan.
func (wb *WalkBlock) Dense() bool { return wb.support == nil }

// Step advances every column one walk step: p ← pP, or p ← p(I+P)/2 for
// the lazy walk.
func (wb *WalkBlock) Step() {
	if wb.support == nil {
		wb.stepDense()
	} else {
		wb.stepSparse()
	}
	wb.cur, wb.next = wb.next, wb.cur
	wb.step++
}

// propagate pushes node v's row into next. It mirrors the arithmetic of
// walk.Distribution.Step exactly: the lazy half is divided off first and
// each neighbor share is mass/deg — same operations, same order.
func (wb *WalkBlock) propagate(v graph.NodeID, row []float64) {
	b := wb.width
	ns := wb.g.Neighbors(v)
	if len(ns) == 0 {
		// Isolated nodes hold their (zero-by-construction) mass.
		dst := wb.next[int(v)*b : int(v)*b+b]
		for j, m := range row {
			dst[j] += m
		}
		return
	}
	share := wb.share
	if wb.lazy {
		dst := wb.next[int(v)*b : int(v)*b+b]
		for j, m := range row {
			h := m / 2
			dst[j] += h
			share[j] = h / float64(len(ns))
		}
	} else {
		for j, m := range row {
			share[j] = m / float64(len(ns))
		}
	}
	for _, u := range ns {
		dst := wb.next[int(u)*b : int(u)*b+b]
		for j, s := range share {
			dst[j] += s
		}
	}
}

// stepSparse is the frontier path: zero only stale rows, propagate only
// support rows, and record first touches to build the next support list.
func (wb *WalkBlock) stepSparse() {
	b := wb.width
	for _, v := range wb.stale {
		row := wb.next[int(v)*b : int(v)*b+b]
		for j := range row {
			row[j] = 0
		}
	}
	// stale's contents are consumed; reuse its backing array for the new
	// support list built below.
	touched := wb.stale[:0]
	mark := wb.mark
	for _, v := range wb.support {
		row := wb.cur[int(v)*b : int(v)*b+b]
		wb.propagate(v, row)
		// The touched set is v's write targets: itself when lazy or
		// isolated, plus its neighbors.
		ns := wb.g.Neighbors(v)
		if wb.lazy || len(ns) == 0 {
			if !mark[v] {
				mark[v] = true
				touched = append(touched, v)
			}
		}
		for _, u := range ns {
			if !mark[u] {
				mark[u] = true
				touched = append(touched, u)
			}
		}
	}
	// Propagation above reads support in ascending order, so the next
	// step needs touched sorted too for the addition order to keep
	// matching the per-source dense loop.
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	for _, v := range touched {
		mark[v] = false
	}
	wb.stale = wb.support
	wb.support = touched
	if len(touched) > wb.g.NumNodes()/2 {
		// Frontier covers most of the graph: the dense scan is cheaper
		// than list upkeep from here on (supports rarely shrink below
		// half once mixing has spread this far).
		wb.support = nil
		wb.stale = nil
	}
}

// stepDense is the full-scan path used once the frontier has saturated.
func (wb *WalkBlock) stepDense() {
	b := wb.width
	for i := range wb.next {
		wb.next[i] = 0
	}
	n := wb.g.NumNodes()
	for v := 0; v < n; v++ {
		row := wb.cur[v*b : v*b+b]
		any := false
		for _, m := range row {
			if m != 0 {
				any = true
				break
			}
		}
		if !any {
			continue
		}
		wb.propagate(graph.NodeID(v), row)
	}
}

// DistancesTo writes the total variation distance of every column to the
// target distribution into out (length Width), summing |p_v - target_v|
// over ascending v exactly like walk.TotalVariation so each column's
// distance is bit-identical to the per-source measurement.
func (wb *WalkBlock) DistancesTo(target []float64, out []float64) error {
	n := wb.g.NumNodes()
	b := wb.width
	if len(target) != n {
		return fmt.Errorf("kernels: total variation length mismatch %d vs %d", n, len(target))
	}
	if len(out) != b {
		return fmt.Errorf("kernels: distance buffer has %d slots for %d columns", len(out), b)
	}
	for j := range out {
		out[j] = 0
	}
	for v := 0; v < n; v++ {
		row := wb.cur[v*b : v*b+b]
		pv := target[v]
		for j, m := range row {
			out[j] += math.Abs(m - pv)
		}
	}
	for j := range out {
		out[j] /= 2
	}
	return nil
}

// Column copies column j's current distribution into dst (allocated when
// nil) and returns it.
func (wb *WalkBlock) Column(j int, dst []float64) []float64 {
	n := wb.g.NumNodes()
	if dst == nil {
		dst = make([]float64, n)
	}
	for v := 0; v < n; v++ {
		dst[v] = wb.cur[v*wb.width+j]
	}
	return dst
}
