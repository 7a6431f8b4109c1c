package walk

import (
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

// TestEquivalenceShardedMixing measures mixing time on a ShardedGraph at
// 1, 2, 3 and 7 shards, which routes through kernels.ShardedWalkBlock,
// and requires every curve to be bit-identical both to the monolithic
// measurement and to the per-source oracle run over the sharded view.
func TestEquivalenceShardedMixing(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		cfg  MixingConfig
	}{
		{"ba-kernel", mustBA(t, 500, 3, 41),
			MixingConfig{MaxSteps: 10, Sources: 40, Seed: 5, Workers: 4}},
		{"ba-scalar", mustBA(t, 300, 3, 42),
			MixingConfig{MaxSteps: 8, Sources: 15, Seed: 7, Workers: 4}},
		{"clustered-kernel", mustClusteredPA(t, 4, 70, 3, 1, 43),
			MixingConfig{MaxSteps: 9, Sources: 17, Seed: 11, Workers: 3}},
		{"ba-big", mustBA(t, bigNodes, 3, 44),
			MixingConfig{MaxSteps: 6, Sources: 17, Seed: 13, Workers: 4}},
	} {
		for _, shards := range []int{1, 2, 3, 7} {
			sg, err := graph.NewSharded(tc.g, shards)
			if err != nil {
				t.Fatal(err)
			}
			t.Run(tc.name, func(t *testing.T) {
				checkMixingIdentical(t, sg, tc.g, tc.cfg)
				checkMixingOracle(t, sg, tc.cfg)
			})
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
