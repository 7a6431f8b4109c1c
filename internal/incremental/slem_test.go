package incremental

import (
	"context"
	"math"
	"testing"

	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/spectral"
)

// TestEquivalenceSLEMMaintainerDriftSweep checks that warm-started
// epoch measurements on the epoch's Degraded CSR agree with cold starts
// on the masked view within tolerance at every epoch, and that carrying
// the eigenvector saves iterations overall.
func TestEquivalenceSLEMMaintainerDriftSweep(t *testing.T) {
	g := sweepGraph(t)
	m, err := faults.New(g, faults.Config{Churn: 0.05, EdgeLoss: 0.03, Drift: 0.01, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	cfg := spectral.Config{Seed: 7, Workers: 1}
	sm := NewSLEMMaintainer(cfg)
	ctx := context.Background()

	warmIters, coldIters := 0, 0
	var d *faults.EpochDelta
	for e := 0; e <= 6; e++ {
		if e > 0 {
			d = m.AdvanceEpochDelta(d)
		}
		res, size, err := sm.Measure(ctx, m.Degraded())
		if err != nil {
			t.Fatalf("epoch %d: warm measure: %v", e, err)
		}
		comp, nodes := graph.LargestComponent(m.View())
		if size != len(nodes) {
			t.Fatalf("epoch %d: component size %d, want %d", e, size, len(nodes))
		}
		cold, err := spectral.SLEMContext(ctx, comp, cfg)
		if err != nil {
			t.Fatalf("epoch %d: cold measure: %v", e, err)
		}
		if !res.Converged || !cold.Converged {
			t.Fatalf("epoch %d: converged warm=%v cold=%v", e, res.Converged, cold.Converged)
		}
		if diff := math.Abs(res.SLEM - cold.SLEM); diff > 1e-8 {
			t.Fatalf("epoch %d: warm SLEM %.12f vs cold %.12f (diff %.3g)", e, res.SLEM, cold.SLEM, diff)
		}
		if e > 0 {
			warmIters += res.Iterations
			coldIters += cold.Iterations
		}
	}
	if warmIters > coldIters {
		t.Fatalf("warm starts used more iterations than cold: %d > %d", warmIters, coldIters)
	}
	t.Logf("iterations across drift epochs: warm %d, cold %d", warmIters, coldIters)
}

// TestEquivalenceSLEMMaintainerFirstMeasureIsCold checks the first
// measurement (no carried vector) is bit-identical to a plain cold
// start with the same configuration.
func TestEquivalenceSLEMMaintainerFirstMeasureIsCold(t *testing.T) {
	g := sweepGraph(t)
	mv := graph.NewMaskedView(g)
	cfg := spectral.Config{Seed: 3, Workers: 1}
	sm := NewSLEMMaintainer(cfg)
	res, _, err := sm.Measure(context.Background(), mv)
	if err != nil {
		t.Fatal(err)
	}
	comp, _ := graph.LargestComponent(mv)
	cold, err := spectral.SLEMContext(context.Background(), comp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SLEM != cold.SLEM || res.Iterations != cold.Iterations {
		t.Fatalf("first measure diverged from cold start: %.15f/%d vs %.15f/%d",
			res.SLEM, res.Iterations, cold.SLEM, cold.Iterations)
	}
}
