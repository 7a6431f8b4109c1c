//go:build !amd64

package kernels

import "github.com/trustnet/trustnet/internal/graph"

// useVector is false off amd64: the dense step runs its pure-Go loops.
const useVector = false

// The assembly bodies exist only on amd64; dense.go's wrappers, which
// call them, run only when useVector is true.

func shareRowsAVX2(mass, shr *float64, offsets *int64, rows, st int, lazy bool) {
	panic("kernels: no vector dense step on this GOARCH")
}

func stepRowsAVX2(mass, in, out *float64, offsets *int64, adj *graph.NodeID, target, acc *float64, u, rows, st int, lazy bool) {
	panic("kernels: no vector dense step on this GOARCH")
}

func distancesAVX2(mass, target, acc *float64, rows, st int) {
	panic("kernels: no vector dense step on this GOARCH")
}
