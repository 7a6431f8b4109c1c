// Package incremental measures the paper's three structural
// measurements — k-core decomposition (§III-B), BFS expansion envelopes
// (§III-D), and the SLEM/mixing bound (§III-C) — at every epoch of a
// fault schedule without recomputing all of them from scratch. The
// Engine reads each epoch's topology once, as the CSR
// faults.Model.Degraded materializes, and hands it to all three:
//
//   - The coreness is kcore.Decompose of that CSR. The O(m)
//     Batagelj–Zaveršnik peel on a CSR costs less per epoch than
//     repairing the coreness from the delta did on the epochs benchmark
//     (INCREMENTAL.md).
//   - ExpansionMaintainer repairs each BFS source's distance field from
//     the epoch's faults.EpochDelta (the exact live-topology symmetric
//     difference) with a Ramalingam–Reps pass (deletions first, then
//     insertions as a multi-source relaxation), keeping per-level counts
//     exact. The sources are spread over the engine's workers, and a
//     source whose repair outgrows its budget re-runs its BFS instead.
//   - SLEMMaintainer warm-starts the Lanczos iteration with the previous
//     epoch's Ritz vector, carried across the delta by original node ID.
//
// The cores and the expansion are bit-identical to their from-scratch
// counterparts (cores, expansion level counts). The warm-started SLEM
// passes the same stopping test as a cold start but is not bit-equal to
// it: the test bounds successive estimates, not the error in μ, so the
// two land apart on a slow mixer (within 1e-4 on the epoch sweep's
// graph at tolerance 1e-8, as its tests require). The expansion
// maintainer falls back to a fresh BFS per source when a delta is too
// large for the repair to be cheaper; its work budget is documented on
// ExpansionMaintainer. The SLEM's only fallback is a cold start when
// the warm vector degenerates.
// Deltas are only small when the fault schedule evolves rather than
// redraws, so pair the engine with faults.Config.Drift.
package incremental
