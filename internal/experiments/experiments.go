// Package experiments contains one runner per table and figure of the
// paper's evaluation section. Each runner regenerates the corresponding
// artifact from the synthetic dataset registry: tables as
// report.Table values and figures as report.Series bundles, so
// cmd/experiments can write them to disk and the root package's
// go test benchmarks can time them.
//
// Runners accept an Options value. Quick mode shrinks sample counts so
// the whole suite stays test-sized; the full mode matches the scaled
// experiment parameters documented in DESIGN.md.
package experiments

import (
	"fmt"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/resilience"
)

// Options configures every experiment runner.
type Options struct {
	// Cache shares generated graphs across runners; nil creates a
	// private cache.
	Cache *datasets.Cache
	// Quick shrinks sampling parameters so runners finish in test time.
	Quick bool
	// Seed drives all randomized measurement components.
	Seed int64
	// Workers bounds parallelism; <= 0 uses GOMAXPROCS.
	Workers int
	// BestEffort lets deadline-hit measurements return partial results
	// (tagged with their coverage) instead of failing outright.
	BestEffort bool
	// Ckpt, when non-nil, is where runners persist per-dataset progress:
	// done datasets as reusable results, interrupted ones as resumable
	// measurement state. Checkpoints are fingerprinted against the full
	// measurement configuration.
	Ckpt *resilience.Store
	// Resume makes runners consult Ckpt before measuring: datasets with
	// a done checkpoint are reused, partial ones continue from their
	// saved state (Table I measures a partial dataset again from the
	// start). The combined result is bit-identical to an uninterrupted
	// run.
	Resume bool
	// Incremental routes epoch-sweep measurements through the
	// internal/incremental engine (cores decomposed on each epoch's
	// CSR, delta-repaired BFS, warm-started SLEM) instead of
	// recomputing every epoch from scratch on the masked view. Integer
	// results are bit-identical either way. SLEM is not: the Lanczos
	// iteration stops when its estimate moves by less than its
	// tolerance, which bounds the step, not the distance to μ, so the
	// warm and cold starts stop at different points. The two agree
	// within 1e-4 (TestEpochSweepQuick); ROADMAP.md's certified-SLEM
	// item replaces that stopping rule with a residual bound.
	Incremental bool
	// Substrate is the canonical graph-substrate fingerprint of the run
	// (see SubstrateFingerprint). Runners fold it into their per-dataset
	// checkpoint fingerprints so checkpoints from a different dataset
	// registry or generator are never resumed. Empty disables the tie.
	Substrate string
}

func (o *Options) fill() {
	if o.Cache == nil {
		o.Cache = &datasets.Cache{}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// graphFor loads a dataset through the shared cache.
func (o *Options) graphFor(name string) (*graph.Graph, error) {
	g, err := o.Cache.Get(name)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return g, nil
}

// cutBeforeSalvage reports whether err is a best-effort deadline or
// cancellation that cut a dataset before any of it completed, with
// measured earlier datasets already finished. A runner then ends its
// dataset loop as partial, leaving that dataset and every later one
// unmeasured, instead of discarding the finished ones. With nothing
// measured yet the interrupt stays an error.
func (o *Options) cutBeforeSalvage(err error, measured int) bool {
	switch resilience.Classify(err) {
	case resilience.ClassDeadline, resilience.ClassCanceled:
		return o.BestEffort && measured > 0
	}
	return false
}

// pick returns quick in Quick mode and full otherwise.
func (o *Options) pick(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}
