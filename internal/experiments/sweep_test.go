package experiments

import (
	"context"
	"errors"
	"testing"

	"github.com/trustnet/trustnet/internal/obs"
)

func TestBridgeSweepQuick(t *testing.T) {
	res, err := BridgeSweep(context.Background(), sharedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3", len(res.Points))
	}
	// More bridges -> smaller SLEM and better expansion, monotonically.
	for i := 1; i < len(res.Points); i++ {
		prev, cur := res.Points[i-1], res.Points[i]
		if cur.Bridges <= prev.Bridges {
			t.Fatalf("budgets not increasing: %d -> %d", prev.Bridges, cur.Bridges)
		}
		if cur.SLEM >= prev.SLEM {
			t.Errorf("SLEM did not drop with bridges: %v (b=%d) -> %v (b=%d)",
				prev.SLEM, prev.Bridges, cur.SLEM, cur.Bridges)
		}
		if cur.MinAlpha <= prev.MinAlpha {
			t.Errorf("min alpha did not grow with bridges: %v -> %v", prev.MinAlpha, cur.MinAlpha)
		}
		// Mixing time: once both mix, more bridges mix faster; a point
		// that doesn't mix counts as slower than any that does.
		if prev.Mixed && cur.Mixed && cur.MixingTime > prev.MixingTime {
			t.Errorf("mixing time grew with bridges: %d -> %d", prev.MixingTime, cur.MixingTime)
		}
		if !prev.Mixed && cur.Mixed {
			continue // improved from unmixed to mixed: fine
		}
		if prev.Mixed && !cur.Mixed {
			t.Errorf("bridges=%d mixed but bridges=%d did not", prev.Bridges, cur.Bridges)
		}
	}
	tab, err := res.Table()
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 3 {
		t.Errorf("table rows = %d", tab.NumRows())
	}
}

// The sweep's SLEM runs under the sweep's context: an already-canceled
// run returns context.Canceled before its first Lanczos step.
func TestBridgeSweepCanceledRunsNoLanczosStep(t *testing.T) {
	iterations := obs.Default().Counter("spectral.slem.iterations")
	before := iterations.Value()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BridgeSweep(ctx, sharedOpts()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := iterations.Value() - before; got != 0 {
		t.Fatalf("canceled sweep ran %d Lanczos steps, want 0", got)
	}
}
