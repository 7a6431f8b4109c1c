package kernels

import (
	"fmt"

	"github.com/trustnet/trustnet/internal/graph"
)

// The dense step's vector path. Where useVector is set (amd64 CPUs with
// AVX2, detected once at init), shareRows, stepRows and distancesTo run
// the assembly bodies in dense_amd64.s instead of their pure-Go loops,
// which stay as the path everywhere else and as the reference
// TestEquivalenceDenseStepVector compares against. The bodies compute
// every column with the same operations in the same order as the loops,
// four columns to a 256-bit register, so the bits do not depend on the
// path.
//
// The assembly checks no bounds. The wrappers below check, before every
// call, that the stride is a positive multiple of 8, that the buffers
// hold n whole rows with the fragment's rows among them (a lazy step
// with no mass panics on its first element), that target has n entries
// and acc a sum per column, and that the fragment's offsets cover its
// rows and stay inside its arcs; a mismatch is a bug, so they panic.
// What they do not check is the CSR invariant of a *graph.Graph: offsets
// ascend and every neighbor ID lies in [0, n), where n, the node count,
// is the number of rows every walk buffer is allocated with. validateCSR
// enforces it at OpenMapped and ReadTNG2; the Builder and
// MaterializeInto build it.

// vectorRows caps the rows one assembly call covers. Assembly is not
// preemptible, so one call over every row of a 10⁶-node graph would hold
// off the garbage collector's stop-the-world for a whole pass.
const vectorRows = 1024

// vectorFragment checks the bounds the share and step bodies rely on
// and returns the fragment's rows and raw arrays: in and out, and mass
// when it is not nil, must hold n whole rows of stride st each, and
// target, when it is not nil, n entries, with a running sum per column
// in acc.
func vectorFragment(rows graph.Rows, in, out, mass []float64, st int, target, acc []float64) (lo, hi int, offsets []int64, adj []graph.NodeID) {
	if st <= 0 || st%8 != 0 {
		panic(fmt.Sprintf("kernels: dense step row stride %d is not a positive multiple of 8", st))
	}
	n := len(in) / st
	l, h := rows.Range()
	lo, hi = int(l), int(h)
	_, offsets, adj = rows.CSR()
	switch {
	case len(in) != n*st || len(out) != n*st || (mass != nil && len(mass) != n*st):
		panic(fmt.Sprintf("kernels: dense step buffers of %d, %d and %d values do not hold %d rows of %d", len(in), len(out), len(mass), n, st))
	case target != nil && (len(target) != n || len(acc) < st):
		panic(fmt.Sprintf("kernels: dense step fold over %d rows of stride %d has %d targets and %d sums", n, st, len(target), len(acc)))
	case lo < 0 || hi > n:
		panic(fmt.Sprintf("kernels: dense step rows [%d, %d) outside %d rows", lo, hi, n))
	case lo < hi && (len(offsets) != hi-lo+1 || offsets[0] < 0 || offsets[hi-lo] < offsets[0] || offsets[hi-lo] > int64(len(adj))):
		panic(fmt.Sprintf("kernels: dense step offsets do not match rows [%d, %d) over %d arcs", lo, hi, len(adj)))
	}
	return lo, hi, offsets, adj
}

// shareRowsVector is shareRowsGo on the vector unit. It also writes the
// padding columns, with the same expression: they hold +0.0 in every
// block, so it writes +0.0 there.
func shareRowsVector(rows graph.Rows, mass, shr []float64, st int, lazy bool) {
	lo, hi, offsets, _ := vectorFragment(rows, mass, shr, nil, st, nil, nil)
	for u := lo; u < hi; u += vectorRows {
		k := min(hi-u, vectorRows)
		shareRowsAVX2(&mass[u*st], &shr[u*st], &offsets[u-lo], k, st, lazy)
	}
}

// stepRowsVector is stepRowsGo on the vector unit. It folds and writes
// the padding columns too: their share rows hold +0.0, so their sums
// and shares are +0.0, and their running sums in acc feed no result.
func stepRowsVector(rows graph.Rows, mass, in, out []float64, st int, lazy bool, target, acc []float64) {
	lo, hi, offsets, adj := vectorFragment(rows, in, out, mass, st, target, acc)
	var m, t, a *float64
	if lazy {
		m = &mass[0]
	}
	if target != nil {
		t, a = &target[0], &acc[0]
	}
	var arcs *graph.NodeID
	if len(adj) > 0 {
		arcs = &adj[0]
	}
	for u := lo; u < hi; u += vectorRows {
		k := min(hi-u, vectorRows)
		stepRowsAVX2(m, &in[0], &out[u*st], &offsets[u-lo], arcs, t, a, u, k, st, lazy)
	}
}

// distancesToVector is distancesToGo on the vector unit. acc holds the
// running sums of all st columns, padding included, between calls.
func distancesToVector(mass []float64, st int, target, out, acc []float64) {
	n := len(target)
	if st <= 0 || st%8 != 0 || len(mass) < n*st || len(acc) < st || len(out) > st {
		panic(fmt.Sprintf("kernels: distances over %d rows of stride %d need %d values, %d sums and at most %d outputs; have %d, %d and %d",
			n, st, n*st, st, st, len(mass), len(acc), len(out)))
	}
	acc = acc[:st]
	clear(acc)
	for v := 0; v < n; v += vectorRows {
		distancesAVX2(&mass[v*st], &target[v], &acc[0], min(n-v, vectorRows), st)
	}
	for j := range out {
		out[j] = acc[j] / 2
	}
}
