package incremental

import (
	"context"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/obs"
	"github.com/trustnet/trustnet/internal/spectral"
)

// Observability instruments for the warm-started SLEM maintenance.
var (
	obsSLEMMeasures = obs.Default().Counter("incremental.slem.measures")
	obsSLEMWarmed   = obs.Default().Counter("incremental.slem.warmed")
	obsSLEMColdFull = obs.Default().Counter("incremental.slem.cold_starts")
)

// SLEMMaintainer carries the SLEM's Ritz vector across epochs so each
// epoch's Lanczos iteration warm-starts from the previous one's. Unlike
// the expansion maintainer it has no delta to repair — the iteration
// itself is the repair — so there is no Apply: after each epoch
// advance, call Measure on the epoch's topology (the engine hands it
// the CSR faults.Model.Degraded returns).
//
// The eigenvector is stored indexed by original node ID, because the
// measurement runs on the topology's largest connected component and the
// component (hence the local ID space) shifts between epochs. Nodes
// that enter the component start at zero in the warm vector, which the
// deflation and normalization inside spectral.SLEMContext absorb; if
// the warm vector degenerates (component turned over entirely), the
// iteration falls back to its seeded random start — either way the
// result satisfies the same Tolerance as a cold start, so warm
// starting affects the step count, never correctness. Not safe for
// concurrent use.
type SLEMMaintainer struct {
	cfg spectral.Config
	// warm is the previous epoch's eigenvector by original node ID;
	// nil until the first successful Measure.
	warm []float64
	// local is scratch for the component-local warm vector.
	local []float64
}

// NewSLEMMaintainer returns a maintainer measuring SLEM with cfg (Warm
// and KeepVector are overridden per measurement).
func NewSLEMMaintainer(cfg spectral.Config) *SLEMMaintainer {
	return &SLEMMaintainer{cfg: cfg}
}

// Measure computes the SLEM of g's largest connected component,
// warm-starting from the previous epoch's eigenvector when one is
// available. Every call must pass a topology over the same node set.
// On success the rebuilt Ritz vector is stored for the next call. The
// returned component size lets callers weigh the measurement.
func (sm *SLEMMaintainer) Measure(ctx context.Context, g graph.View) (*spectral.Result, int, error) {
	obsSLEMMeasures.Inc()
	comp, nodes := graph.LargestComponentView(g)

	cfg := sm.cfg
	cfg.KeepVector = true
	if sm.warm != nil {
		if cap(sm.local) < len(nodes) {
			sm.local = make([]float64, len(nodes))
		}
		sm.local = sm.local[:len(nodes)]
		for l, orig := range nodes {
			sm.local[l] = sm.warm[orig]
		}
		cfg.Warm = sm.local
		obsSLEMWarmed.Inc()
	} else {
		obsSLEMColdFull.Inc()
	}

	res, err := spectral.SLEMContext(ctx, comp, cfg)
	if err != nil {
		return nil, 0, err
	}
	if ev := res.Eigenvector(); ev != nil {
		if sm.warm == nil {
			sm.warm = make([]float64, g.NumNodes())
		}
		// Zero stale entries so nodes leaving and re-entering the
		// component don't inject an old epoch's values.
		for i := range sm.warm {
			sm.warm[i] = 0
		}
		for l, orig := range nodes {
			sm.warm[orig] = ev[l]
		}
	}
	return res, len(nodes), nil
}
