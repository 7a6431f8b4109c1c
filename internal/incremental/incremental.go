// Package incremental maintains the paper's three structural
// measurements — k-core decomposition (§III-B), BFS expansion envelopes
// (§III-D), and the SLEM/mixing bound (§III-C) — across fault-schedule
// epochs without recomputing them from scratch. The fault model reports
// each epoch advance as a faults.EpochDelta (the exact live-topology
// symmetric difference); the maintainers in this package consume that
// delta and repair only the state the delta actually invalidates:
//
//   - CoreMaintainer re-evaluates coreness only inside the affected
//     subcores, per the Batagelj–Zaveršnik generalized-core update
//     rules: a monotone h-operator descent for removals and a per-edge
//     subcore traversal for insertions.
//   - ExpansionMaintainer repairs each BFS source's distance field with
//     a Ramalingam–Reps pass (deletions first, then insertions as a
//     multi-source relaxation), keeping per-level counts exact. The
//     sources are spread over the engine's workers, and a source whose
//     repair outgrows its budget re-runs its BFS instead.
//   - SLEMMaintainer warm-starts the Lanczos iteration with the previous
//     epoch's Ritz vector, carried across the delta by original node ID.
//
// The core and expansion maintainers produce results bit-identical to
// their from-scratch counterparts (cores, expansion level counts). The
// warm-started SLEM passes the same stopping test as a cold start but
// is not bit-equal to it: the test bounds successive estimates, not the
// error in μ, so the two land apart on a slow mixer (within 1e-4 on the
// epoch sweep's graph at tolerance 1e-8, as its tests require). The
// core and expansion maintainers fall back to the full recomputation
// (per source, for expansion) when a delta is too large for the repair
// to be cheaper; their work budgets are documented on CoreMaintainer
// and ExpansionMaintainer. The SLEM's only fallback is a cold start
// when the warm vector degenerates.
// Deltas are only small when the fault schedule evolves rather than
// redraws, so pair these with faults.Config.Drift.
package incremental
