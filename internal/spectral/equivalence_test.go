package spectral

import (
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
)

// TestEquivalenceSLEMWorkerCounts is the determinism contract for the
// row-partitioned Lanczos iteration: the SLEM and the step count are
// bit-for-bit identical at every worker count, because each row's
// neighbor sum is accumulated by exactly one worker in adjacency order
// and every dot product and norm is summed serially in node order.
// The graph is sized above the package's small-graph sequential
// threshold so the parallel path actually runs.
func TestEquivalenceSLEMWorkerCounts(t *testing.T) {
	g, err := gen.BarabasiAlbert(5000, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	// A loose tolerance keeps the iteration count test-sized; bit-level
	// equality across worker counts is what matters, not convergence.
	run := func(workers int) *Result {
		r, err := SLEM(g, Config{Seed: 2, Tolerance: 1e-4, MaxIterations: 400, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r
	}
	want := run(1)
	for _, workers := range []int{2, 4, 7} {
		got := run(workers)
		if got.SLEM != want.SLEM {
			t.Errorf("workers=%d: SLEM %v != workers=1 SLEM %v (bit-level)", workers, got.SLEM, want.SLEM)
		}
		if got.Iterations != want.Iterations || got.Converged != want.Converged {
			t.Errorf("workers=%d: iterations/converged %d/%v != %d/%v",
				workers, got.Iterations, got.Converged, want.Iterations, want.Converged)
		}
	}
}
