package kernels

import (
	"fmt"
	"math"
	"slices"

	"github.com/trustnet/trustnet/internal/graph"
)

// WalkBlock evolves a block of B exact walk distributions simultaneously.
// The state is column-blocked: node v's B per-source values are
// contiguous at [v·S, v·S+B), where the row stride S is B rounded up to a
// multiple of the dense step's 8 columns (the padding columns stay +0.0),
// so one pass over the CSR adjacency advances all B sources — the
// per-edge work loads each neighbor list once per step instead of once
// per source per step.
//
// Every column is bit-for-bit identical to the per-source dense loop of
// walk.Distribution.Step at any block width: each column only ever
// receives additions derived from its own source, in the order that loop
// makes them (ascending source node, CSR neighbor order), and nodes whose
// mass is zero in some column contribute an exact +0.0 there, which
// cannot change the bits of the non-negative partial sums a walk
// produces.
//
// Early steps use a sparse-frontier fast path, a scatter: only nodes
// whose block row is (possibly) nonzero are propagated, and only rows
// touched by the previous step are re-zeroed, so a step costs O(edges
// incident to the frontier · B) instead of O((n+m)·B). Per arc the
// scatter costs several times what the dense step, a gather, does, so
// the block switches permanently to the gather as soon as the next
// step's support carries more than an eighth of the graph's 2m arcs
// (denseArcShare), however few rows that is.
//
// The gather reads each row's share of its mass, mass/deg, rather than
// the mass itself, so from the hand-over on the block keeps share rows:
// one pass over the rows (stepRows) sums every row's neighbors' shares,
// folds the row's distance to a target when one is given, and writes the
// row's own share for the next step. A plain block then stores its
// distribution nowhere, and Column re-gathers it; a lazy block keeps it
// in a third buffer, which its self term reads.
//
// WalkBlocks are not safe for concurrent use; create one per goroutine.
type WalkBlock struct {
	g      *graph.Graph
	width  int
	stride int
	lazy   bool
	// cur and next are the column-blocked n×stride buffers. While the
	// block scatters, cur holds the distribution and next is the
	// scatter's target. Once it gathers, next holds the share rows of
	// the current distribution, which the next step reads, and cur the
	// share rows that distribution was gathered from; a dense step writes
	// its new share rows over cur, then the two swap.
	cur, next []float64
	// mass holds the current distribution: cur while the block scatters,
	// and from the hand-over on a buffer of its own in a lazy block, whose
	// dense step updates it in place. A plain block's first dense step
	// writes share rows over it, and mass is nil from then on.
	mass []float64
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
	// tvd holds the distance fold's running sums on the vector path and
	// in every dense step.
	tvd  []float64
	step int
}

// denseArcShare sets the hand-over of WalkBlock.stepSparse to the dense
// gather: it happens once the next support's rows carry more than
// 2m/denseArcShare arcs, because per arc the scalar scatter costs 4–8×
// what the AVX2 gather does. Measured in process on a 2-vCPU Xeon
// (Go 1.24.0), 16 columns, fresh blocks, median of 9, on perfbench
// large's graphs:
//   - clustered (2m = 515,200): a sparse step from 3,486 rows (45,131
//     arcs) took 1.0–1.9 ms, 21–43 ns per arc, and a dense step 2.6 ms,
//     5.0 ns per arc. The block hands over after 6 steps; a rule of more
//     than n/2 rows would still scatter at step 20, from 19,095 rows in
//     7.5 ms.
//   - BA (2m = 639,928): a sparse step from 7,579 rows (195,619 arcs)
//     took 13.1 ms and a dense step 4.6–5.3 ms; the block hands over
//     before it.
//
// The ratio was measured on the AVX2 gather before it took the share
// and the distance fold into its pass; the fused step costs less per
// arc, and the rule was not re-measured against it. The pure-Go gather
// that other CPUs run costs more per arc, and the rule was not
// re-measured there either.
const denseArcShare = 8

// rowStride returns the row stride of a width-b block: b rounded up to a
// multiple of the 8 columns the dense step sums at a time.
func rowStride(b int) int { return (b + 7) &^ 7 }

// NewWalkBlock returns a block with column j concentrated at sources[j].
// The block width is len(sources): walk.MeasureMixing passes at most
// DefaultBlockWidth, but any width works. Sources must be valid
// non-isolated nodes of a graph with at least one edge, exactly as
// walk.NewDistribution requires. NewWalkBlock only reads sources and
// keeps no reference to it, so callers may pass a window of a longer
// list.
func NewWalkBlock(g *graph.Graph, sources []graph.NodeID, lazy bool) (*WalkBlock, error) {
	if len(sources) == 0 {
		return nil, fmt.Errorf("kernels: walk block needs at least one source")
	}
	if g.NumEdges() == 0 {
		return nil, fmt.Errorf("kernels: graph has no edges")
	}
	n := g.NumNodes()
	b := len(sources)
	st := rowStride(b)
	wb := &WalkBlock{
		g:      g,
		width:  b,
		stride: st,
		lazy:   lazy,
		cur:    make([]float64, n*st),
		next:   make([]float64, n*st),
		mark:   make([]bool, n),
		share:  make([]float64, b),
		tvd:    make([]float64, st),
	}
	wb.mass = wb.cur
	for j, s := range sources {
		if !g.Valid(s) {
			return nil, fmt.Errorf("kernels: source %d out of range", s)
		}
		if g.Degree(s) == 0 {
			return nil, fmt.Errorf("kernels: source %d is isolated", s)
		}
		wb.cur[int(s)*st+j] = 1
		if !wb.mark[s] {
			wb.mark[s] = true
			wb.support = append(wb.support, s)
		}
	}
	slices.Sort(wb.support)
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
// sparse-frontier fast path to the permanent dense gather.
func (wb *WalkBlock) Dense() bool { return wb.support == nil }

// Step advances every column one walk step: p ← pP, or p ← p(I+P)/2 for
// the lazy walk.
func (wb *WalkBlock) Step() { wb.advance(nil, nil) }

// StepDistances advances every column one walk step, as Step does, and
// writes each column's total variation distance to the target
// distribution into out (length Width). It sums |p_v - target_v| over
// ascending v exactly like walk.TotalVariation, so each column's distance
// is bit-identical to the per-source measurement; a dense step folds the
// sums in the same pass over the rows that advances them. The fold runs
// over ascending rows on one goroutine: splitting it would change the
// floating-point addition order.
func (wb *WalkBlock) StepDistances(target, out []float64) error {
	if n := wb.g.NumNodes(); len(target) != n {
		return fmt.Errorf("kernels: total variation length mismatch %d vs %d", n, len(target))
	}
	if len(out) != wb.width {
		return fmt.Errorf("kernels: distance buffer has %d slots for %d columns", len(out), wb.width)
	}
	wb.advance(target, out)
	return nil
}

// advance takes one step and, when target is not nil, writes every
// column's distance to it into out.
func (wb *WalkBlock) advance(target, out []float64) {
	wb.step++
	if wb.support == nil {
		wb.stepDense(target, out)
		return
	}
	wb.stepSparse()
	wb.cur, wb.next = wb.next, wb.cur
	wb.mass = wb.cur
	if wb.support == nil {
		wb.handOver()
	}
	if target != nil {
		distancesTo(wb.mass, wb.width, wb.stride, target, out, wb.tvd)
	}
}

// handOver readies the gather after the last scatter: it writes the share
// rows of the distribution in mass into next, for the first dense step to
// read. This is the only share pass; every dense step writes the next
// step's share rows itself. A lazy block gives cur a buffer of its own,
// so mass keeps the distribution for the self term.
func (wb *WalkBlock) handOver() {
	shareRows(wb.g.Rows(), wb.mass, wb.next, wb.width, wb.stride, wb.lazy)
	if wb.lazy {
		wb.cur = make([]float64, len(wb.mass))
	}
}

// stepDense is the gather: one pass over every row reads next's share
// rows, writes the new share rows over cur and, when target is not nil,
// folds the distances to it into out. A plain block's first pass writes
// over the buffer that held its distribution, so mass goes nil.
func (wb *WalkBlock) stepDense(target, out []float64) {
	if !wb.lazy {
		wb.mass = nil
	}
	if target != nil {
		clear(wb.tvd)
	}
	stepRows(wb.g.Rows(), wb.mass, wb.next, wb.cur, wb.stride, wb.lazy, target, wb.tvd)
	wb.cur, wb.next = wb.next, wb.cur
	for j := range out {
		out[j] = wb.tvd[j] / 2
	}
}

// propagate pushes node v's row into next. It mirrors the arithmetic of
// walk.Distribution.Step exactly: the lazy half is divided off first and
// each neighbor share is mass/deg — same operations, same order.
func (wb *WalkBlock) propagate(v graph.NodeID, row []float64) {
	b, st := wb.width, wb.stride
	ns := wb.g.Neighbors(v)
	if len(ns) == 0 {
		// Isolated nodes hold their (zero-by-construction) mass.
		dst := wb.next[int(v)*st : int(v)*st+b]
		for j, m := range row {
			dst[j] += m
		}
		return
	}
	share := wb.share
	if wb.lazy {
		dst := wb.next[int(v)*st : int(v)*st+b]
		for j, m := range row {
			h := float64(m / 2)
			dst[j] += h
			share[j] = h / float64(len(ns))
		}
	} else {
		for j, m := range row {
			share[j] = m / float64(len(ns))
		}
	}
	for _, u := range ns {
		dst := wb.next[int(u)*st : int(u)*st+b]
		for j, s := range share {
			dst[j] += s
		}
	}
}

// stepSparse is the frontier path: zero only stale rows, propagate only
// support rows, and record first touches to build the next support list.
func (wb *WalkBlock) stepSparse() {
	b, st := wb.width, wb.stride
	for _, v := range wb.stale {
		row := wb.next[int(v)*st : int(v)*st+b]
		for j := range row {
			row[j] = 0
		}
	}
	// stale's contents are consumed; reuse its backing array for the new
	// support list built below.
	touched := wb.stale[:0]
	mark := wb.mark
	for _, v := range wb.support {
		row := wb.cur[int(v)*st : int(v)*st+b]
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
	slices.Sort(touched)
	var arcs int64
	for _, v := range touched {
		mark[v] = false
		arcs += int64(wb.g.Degree(v))
	}
	wb.stale = wb.support
	wb.support = touched
	if arcs*denseArcShare > 2*wb.g.NumEdges() {
		// Scattering from the next support would cost more than
		// gathering over every arc. The hand-over is permanent, and it
		// keeps the bits: rows outside the support add exact +0.0.
		wb.support = nil
		wb.stale = nil
	}
}

// The dense step is a gather: every row sums its neighbors' shares. The
// bits equal the scatter's (propagate's) because destination u receives
// the same values in the same order either way: the scatter visits
// sources in ascending order, so u's additions arrive from its neighbors
// ascending — the order of u's sorted adjacency — with its own lazy half
// at u's position, all from a +0.0 start. Rows of zero mass, which the
// scatter skips, add exact +0.0 shares here, a bitwise no-op on the
// non-negative partial sums a walk produces. shareRows writes the first
// share rows at the hand-over; from then on stepRows makes one pass per
// step that gathers every row, folds its distance to a target and writes
// its share for the next step. Each runs the vector bodies of dense.go
// where useVector is set, and the pure-Go loops below otherwise; both
// give the same bits.

// shareRows writes the share each row of rows sends to every neighbor
// into the first b columns of its row of shr (see shareRowsGo).
func shareRows(rows graph.Rows, mass, shr []float64, b, st int, lazy bool) {
	if useVector {
		shareRowsVector(rows, mass, shr, st, lazy)
		return
	}
	shareRowsGo(rows, mass, shr, b, st, lazy)
}

// stepRows takes one dense step over rows (see stepRowsGo).
func stepRows(rows graph.Rows, mass, in, out []float64, st int, lazy bool, target, acc []float64) {
	if useVector {
		stepRowsVector(rows, mass, in, out, st, lazy, target, acc)
		return
	}
	stepRowsGo(rows, mass, in, out, st, lazy, target, acc)
}

// distancesTo writes the total variation distance of every column of
// mass to target into out (see distancesToGo). The sparse steps fold with
// it; acc holds the vector path's running sums.
func distancesTo(mass []float64, b, st int, target, out, acc []float64) {
	if useVector {
		distancesToVector(mass, st, target, out, acc)
		return
	}
	distancesToGo(mass, b, st, target, out)
}

// shareRowsGo writes the share each row of rows sends to every neighbor
// into the first b columns of its row of shr, with propagate's
// expressions: mass/deg, or (mass/2)/deg when lazy. Isolated rows send
// nothing and are left unwritten, and so are the padding columns: they
// only ever feed padding columns, which no result reads.
func shareRowsGo(rows graph.Rows, mass, shr []float64, b, st int, lazy bool) {
	lo, hi := rows.Range()
	for v := lo; v < hi; v++ {
		d := rows.Degree(v)
		if d == 0 {
			continue
		}
		deg := float64(d)
		src := mass[int(v)*st : int(v)*st+b]
		dst := shr[int(v)*st : int(v)*st+b]
		if lazy {
			for j, m := range src {
				h := m / 2
				dst[j] = h / deg
			}
		} else {
			for j, m := range src {
				dst[j] = m / deg
			}
		}
	}
}

// stepRowsGo is one dense step over rows, in one pass in ascending row
// order. For each row u with arcs it sums its neighbors' share rows in
// in, in adjacency order from +0.0, with the lazy half of u's own mass
// (its row of mass) added at u's position among them. It then stores the
// sum over u's row of mass when lazy, adds |sum - target[u]| into each
// column's running sum in acc when target is not nil, and writes u's own
// share, sum/deg or (sum/2)/deg as shareRowsGo has it, into its row of
// out. These are the operations of a gather, a distance fold and a share
// pass, in their order. Each 8-column chunk of the row stride is summed
// in registers.
//
// A row without arcs holds +0.0 in every walk, since no arc brings it
// mass and no source sits on it. It writes nothing and folds
// |+0.0 - target[u]|, which is |target[u]| in every bit.
func stepRowsGo(rows graph.Rows, mass, in, out []float64, st int, lazy bool, target, acc []float64) {
	lo, hi := rows.Range()
	for u := lo; u < hi; u++ {
		ns := rows.Neighbors(u)
		if len(ns) == 0 {
			if target != nil {
				t := math.Abs(target[u])
				for j := range acc[:st] {
					acc[j] += t
				}
			}
			continue
		}
		// The self term goes after the neighbors below u; without it,
		// every neighbor is in before.
		before, after := ns, ns[len(ns):]
		if lazy {
			k := 0
			for k < len(ns) && ns[k] < u {
				k++
			}
			before, after = ns[:k], ns[k:]
		}
		deg := float64(len(ns))
		row := int(u) * st
		for j := 0; j < st; j += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for _, v := range before {
				r := (*[8]float64)(in[int(v)*st+j:])
				s0 += r[0]
				s1 += r[1]
				s2 += r[2]
				s3 += r[3]
				s4 += r[4]
				s5 += r[5]
				s6 += r[6]
				s7 += r[7]
			}
			if lazy {
				m := (*[8]float64)(mass[row+j:])
				s0 += float64(m[0] / 2)
				s1 += float64(m[1] / 2)
				s2 += float64(m[2] / 2)
				s3 += float64(m[3] / 2)
				s4 += float64(m[4] / 2)
				s5 += float64(m[5] / 2)
				s6 += float64(m[6] / 2)
				s7 += float64(m[7] / 2)
			}
			for _, v := range after {
				r := (*[8]float64)(in[int(v)*st+j:])
				s0 += r[0]
				s1 += r[1]
				s2 += r[2]
				s3 += r[3]
				s4 += r[4]
				s5 += r[5]
				s6 += r[6]
				s7 += r[7]
			}
			s := [8]float64{s0, s1, s2, s3, s4, s5, s6, s7}
			if lazy {
				*(*[8]float64)(mass[row+j:]) = s
			}
			if target != nil {
				t, a := target[u], (*[8]float64)(acc[j:])
				for k, x := range s {
					a[k] += math.Abs(x - t)
				}
			}
			o := (*[8]float64)(out[row+j:])
			for k, x := range s {
				if lazy {
					x /= 2
				}
				o[k] = x / deg
			}
		}
	}
}

// Column copies column j's current distribution into dst (allocated when
// nil) and returns it. Once a plain block gathers it keeps no
// distribution, so Column re-gathers column j from the share rows the
// last step read, with the same additions in the same order.
func (wb *WalkBlock) Column(j int, dst []float64) []float64 {
	n, st := wb.g.NumNodes(), wb.stride
	if dst == nil {
		dst = make([]float64, n)
	}
	if wb.mass != nil {
		for v := 0; v < n; v++ {
			dst[v] = wb.mass[v*st+j]
		}
		return dst
	}
	for v := 0; v < n; v++ {
		s := 0.0
		for _, u := range wb.g.Neighbors(graph.NodeID(v)) {
			s += wb.cur[int(u)*st+j]
		}
		dst[v] = s
	}
	return dst
}

// distancesToGo is the sparse steps' distance fold in pure Go: it sums
// |p_v - target_v| into out over ascending v, then halves.
func distancesToGo(mass []float64, b, st int, target, out []float64) {
	n := len(target)
	for j := range out {
		out[j] = 0
	}
	for v := 0; v < n; v++ {
		row := mass[v*st : v*st+b]
		pv := target[v]
		for j, m := range row {
			out[j] += math.Abs(m - pv)
		}
	}
	for j := range out {
		out[j] /= 2
	}
}
