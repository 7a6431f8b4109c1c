package spectral

import (
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

// TestEquivalenceShardedSLEM runs the Lanczos iteration on a ShardedGraph
// at 1, 2 and 7 shards and requires the SLEM, iteration count and convergence flag to
// be bit-identical to the monolithic run: the mat-vec's per-row gather
// order does not depend on the row partition.
func TestEquivalenceShardedSLEM(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ba", mustBA(t, 900, 3, 61)},
		{"clustered", mustClusteredPA(t, 3, 100, 3, 2, 62)},
	} {
		cfg := Config{Tolerance: 1e-9, MaxIterations: 4000, Seed: 17, Workers: 3}
		ref, err := SLEM(tc.g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 7} {
			sg, err := graph.NewSharded(tc.g, shards)
			if err != nil {
				t.Fatal(err)
			}
			got, err := SLEM(sg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.SLEM != ref.SLEM {
				t.Fatalf("%s shards=%d: SLEM %v != %v (must be bit-identical)",
					tc.name, shards, got.SLEM, ref.SLEM)
			}
			if got.Iterations != ref.Iterations || got.Converged != ref.Converged {
				t.Fatalf("%s shards=%d: trajectory diverged (%d its, conv %v) vs (%d its, conv %v)",
					tc.name, shards, got.Iterations, got.Converged, ref.Iterations, ref.Converged)
			}
		}
	}
}

func mustBA(t *testing.T, n, attach int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(n, attach, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustClusteredPA(t *testing.T, comms, size, attach, bridges int, seed int64) *graph.Graph {
	t.Helper()
	g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities: comms, CommunitySize: size, Attach: attach, Bridges: bridges, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}
