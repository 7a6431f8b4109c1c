package kernels

import (
	"fmt"

	"github.com/trustnet/trustnet/internal/graph"
)

// The dense step's vector path. Where useVector is set (amd64 CPUs with
// AVX2, detected once at init), shareRows, gatherRows and
// WalkBlock.DistancesTo run the assembly bodies in dense_amd64.s instead
// of their pure-Go loops, which stay as the path everywhere else and as
// the reference TestEquivalenceDenseStepVector compares against. The
// bodies compute every column with the same operations in the same order
// as the loops, four columns to a 256-bit register, so the bits do not
// depend on the path.
//
// The assembly checks no bounds. The wrappers below check, before every
// call, that the stride is a positive multiple of 8, that cur and shr
// hold n whole rows with the fragment's rows among them, that target has
// n entries, and that the fragment's offsets cover its rows and stay
// inside its arcs; a mismatch is a bug, so they panic. What they do not
// check is the CSR invariant of a *graph.Graph: offsets ascend and every
// neighbor ID lies in [0, n), where n, the node count, is the number of
// rows every walk buffer is allocated with. validateCSR enforces it at
// OpenMapped and ReadTNG2; the Builder and MaterializeInto build it.

// vectorRows caps the rows one assembly call covers. Assembly is not
// preemptible, so one call over every row of a 10⁶-node graph would hold
// off the garbage collector's stop-the-world for a whole pass.
const vectorRows = 1024

// vectorFragment checks the bounds the share and gather bodies rely on
// and returns the fragment's rows and raw arrays.
func vectorFragment(rows graph.Rows, cur, shr []float64, st int) (lo, hi int, offsets []int64, adj []graph.NodeID) {
	if st <= 0 || st%8 != 0 {
		panic(fmt.Sprintf("kernels: dense step row stride %d is not a positive multiple of 8", st))
	}
	n := len(cur) / st
	l, h := rows.Range()
	lo, hi = int(l), int(h)
	_, offsets, adj = rows.CSR()
	switch {
	case len(cur) != n*st || len(shr) < n*st:
		panic(fmt.Sprintf("kernels: dense step buffers of %d and %d values do not hold %d rows of %d", len(cur), len(shr), n, st))
	case lo < 0 || hi > n:
		panic(fmt.Sprintf("kernels: dense step rows [%d, %d) outside %d rows", lo, hi, n))
	case lo < hi && (len(offsets) != hi-lo+1 || offsets[0] < 0 || offsets[hi-lo] < offsets[0] || offsets[hi-lo] > int64(len(adj))):
		panic(fmt.Sprintf("kernels: dense step offsets do not match rows [%d, %d) over %d arcs", lo, hi, len(adj)))
	}
	return lo, hi, offsets, adj
}

// shareRowsVector is shareRows on the vector unit. It also writes the
// padding columns, with the same expression: they hold +0.0 in every
// block, so it writes +0.0 there.
func shareRowsVector(rows graph.Rows, cur, shr []float64, st int, lazy bool) {
	lo, hi, offsets, _ := vectorFragment(rows, cur, shr, st)
	for u := lo; u < hi; u += vectorRows {
		k := min(hi-u, vectorRows)
		shareRowsAVX2(&cur[u*st], &shr[u*st], &offsets[u-lo], k, st, lazy)
	}
}

// gatherRowsVector is gatherRows on the vector unit.
func gatherRowsVector(rows graph.Rows, cur, shr []float64, st int, lazy bool) {
	lo, hi, offsets, adj := vectorFragment(rows, cur, shr, st)
	if lo == hi || offsets[0] == offsets[hi-lo] {
		return // every row, if any, has no arcs and keeps its mass
	}
	for u := lo; u < hi; u += vectorRows {
		k := min(hi-u, vectorRows)
		gatherRowsAVX2(&cur[u*st], &shr[0], &offsets[u-lo], &adj[0], u, k, st, lazy)
	}
}

// distancesToVector is distancesToGo on the vector unit. acc holds the
// running sums of all st columns, padding included, between calls.
func distancesToVector(cur []float64, st int, target, out, acc []float64) {
	n := len(target)
	if st <= 0 || st%8 != 0 || len(cur) < n*st || len(acc) < st || len(out) > st {
		panic(fmt.Sprintf("kernels: distances over %d rows of stride %d need %d values, %d sums and at most %d outputs; have %d, %d and %d",
			n, st, n*st, st, st, len(cur), len(acc), len(out)))
	}
	acc = acc[:st]
	clear(acc)
	for v := 0; v < n; v += vectorRows {
		distancesAVX2(&cur[v*st], &target[v], &acc[0], min(n-v, vectorRows), st)
	}
	for j := range out {
		out[j] = acc[j] / 2
	}
}
