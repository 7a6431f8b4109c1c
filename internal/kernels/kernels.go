// Package kernels holds the cache-friendly batched measurement kernels
// that internal/walk and internal/expansion run on every graph:
//
//   - WalkBlock evolves a block of B walk distributions per CSR pass
//     (an SpMM-style column-blocked n×B buffer), so one adjacency stream
//     serves B sources per step instead of one — the amortization that
//     "Distributed Computation of Mixing Time" (arXiv:1610.05646)
//     exploits for the bandwidth-bound mixing measurement of Eq. 2.
//   - BFSBatch advances up to 64 BFS cores at once with uint64
//     frontier/visited masks over the CSR, extracting per-source level
//     sizes via popcount — up to ~64× fewer adjacency scans for the
//     expansion measurement of Eq. 4, with exact integer results.
//
// Each kernel has two phases and hands over between them by cost, never
// by a setting. A walk block scatters from its sparse support until
// that support's arcs pass an eighth of the graph's, then gathers over
// every row. A BFS batch runs its lanes together until, from level 32
// on, a frontier's scan would advance fewer than 1.5 lanes per arc; its
// live lanes then finish one at a time. WalkBlock.Dense and
// BFSBatch.LanesAlone report the hand-overs.
//
// Each is the one kernel of its measurement, over the CSR that
// graph.Materialize returns (zero-copy for a Graph or an mmap-backed
// graph.Mapped). Neither fans out internally: walk.MeasureMixing and
// expansion.Measure run one block of DefaultBlockWidth sources, or one
// batch of BFSBatchWidth cores, per worker task. BFSBatch also serves
// incremental.ExpansionMaintainer, whose rebuilds need each lane's
// distances (RunDistances); both BFS callers cut their batches
// in node-ID order (SortByNode), where nearby cores share most scans.
//
// Both kernels preserve the repository's determinism contract
// bit-for-bit. Per-source walk columns are independent and every
// floating-point addition into a column happens in the same ascending
// source order as a per-source walk.Distribution — the dense step
// gathers each row's neighbors in sorted adjacency order, which is the
// order the per-source scatter delivers them (zero-mass nodes contribute
// exact +0.0, a bitwise no-op on the non-negative values a walk
// produces) — so blocked results equal per-source results at every
// block width. A dense step is one pass over the CSR: each row sums its
// neighbors' share rows (mass/deg, written by the step before), folds
// its distance to stationarity when the caller asks for it
// (WalkBlock.StepDistances), and writes its own share for the next
// step, with the operations and the order of a separate gather, fold
// and share pass. BFS is integer, so batching cannot change its
// level counts at all. The per-source loops are kept only as the
// reference oracles the TestEquivalence* suites in walk and expansion
// compare the kernels against.
//
// On amd64 CPUs with AVX2, chosen once at init from CPUID, the walk's
// dense step, the hand-over's share pass and the sparse steps'
// total-variation fold run assembly on 256-bit lanes, four columns at a
// time (dense.go, dense_amd64.s). A lane is a column, and the assembly makes the same
// IEEE-754 operations in the same order as the pure-Go loops, which
// remain the path on every other CPU and GOARCH, so the bits do not
// depend on the path.
package kernels

// MinKernelNodes is the node count at which the measurements used to
// switch from per-source loops to the batched kernels.
//
// Deprecated: no measurement dispatches on it any more; walk and
// expansion run the kernels at every graph size. perfbench uses it only
// to label its printed walk.measure_mixing.per_source_s row.
const MinKernelNodes = 4096

// DefaultBlockWidth is the walk-propagation block width walk.MeasureMixing
// uses: wide enough to amortize one adjacency stream over many sources,
// narrow enough that a block's n×B working set stays cache-resident.
const DefaultBlockWidth = 16

// BFSBatchWidth is the fixed lane count of the bit-parallel BFS: one
// bit per source in a uint64 word.
const BFSBatchWidth = 64
