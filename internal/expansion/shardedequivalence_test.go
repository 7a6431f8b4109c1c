package expansion

import (
	"reflect"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

// TestEquivalenceShardedExpansion measures BFS envelopes on a ShardedGraph
// at 1, 2, 3 and 7 shards, which routes through kernels.ShardedBFSBatch,
// and requires results identical both to the monolithic measurement and
// to the scalar oracle run over the sharded view.
func TestEquivalenceShardedExpansion(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graph.Graph
		cores int
	}{
		{"ba-batch", mustBA(t, 600, 3, 51), 130},
		{"ba-scalar", mustBA(t, 250, 3, 52), 63},
		{"clustered-batch", mustClusteredPA(t, 3, 90, 3, 1, 53), 65},
		{"ba-big", mustBA(t, bigNodes, 3, 54), 65},
	} {
		srcs, err := SampledSources(tc.g, tc.cores, 9)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 7} {
			sg, err := graph.NewSharded(tc.g, shards)
			if err != nil {
				t.Fatal(err)
			}
			// Source sampling is degree-driven and must not see the shards.
			srcsSharded, err := SampledSources(sg, tc.cores, 9)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(srcs, srcsSharded) {
				t.Fatalf("%s shards=%d: sampled sources diverge", tc.name, shards)
			}
			t.Run(tc.name, func(t *testing.T) {
				cfg := Config{Sources: srcs, Workers: 4}
				checkExpansionIdentical(t, sg, tc.g, cfg)
				checkExpansionOracle(t, sg, cfg)
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
