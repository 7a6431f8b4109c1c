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

// pick returns quick in Quick mode and full otherwise.
func (o *Options) pick(quick, full int) int {
	if o.Quick {
		return quick
	}
	return full
}
