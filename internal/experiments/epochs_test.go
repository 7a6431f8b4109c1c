package experiments

import (
	"context"
	"math"
	"testing"
)

// TestEpochSweepQuick runs the quick epoch sweep in both modes over the
// same drifting schedule. The integer columns must agree exactly, and μ
// within the 1e-4 band Options.Incremental documents. Two full-mode
// runs must render byte-identical tables: the epochs artifact is
// content-addressed, so nothing run-dependent may reach it.
func TestEpochSweepQuick(t *testing.T) {
	ctx := context.Background()
	opts := Options{Quick: true, Seed: 1}
	full, err := EpochSweep(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Incremental = true
	inc, err := EpochSweep(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Points) != 4 || len(inc.Points) != len(full.Points) {
		t.Fatalf("epochs: full %d, incremental %d, want 4 each", len(full.Points), len(inc.Points))
	}
	for e, f := range full.Points {
		i := inc.Points[e]
		if f.Degeneracy != i.Degeneracy || f.ComponentSize != i.ComponentSize || f.MaxEccentricity != i.MaxEccentricity {
			t.Errorf("epoch %d: full %+v, incremental %+v", e, f, i)
		}
		if d := math.Abs(f.SLEM - i.SLEM); d > 1e-4 {
			t.Errorf("epoch %d: mu full %.9f, incremental %.9f (diff %.3g > 1e-4)", e, f.SLEM, i.SLEM, d)
		}
	}

	opts.Incremental = false
	again, err := EpochSweep(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := full.Table()
	if err != nil {
		t.Fatal(err)
	}
	b, err := again.Table()
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("two full-mode runs rendered different tables:\n%s\n%s", a, b)
	}
}
