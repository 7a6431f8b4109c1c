// Package dynamic addresses the paper's closing open problem —
// "investigate the expansion and mixing characteristics of dynamic social
// graphs" (§VI) — with a growth simulator that emits nested snapshots of
// an evolving social network and a tracker that measures the paper's
// properties (SLEM, mixing, expansion, core structure) on every snapshot.
//
// Growth follows preferential attachment with optional densification
// (Leskovec et al.'s "graphs over time" observation, reference [8] of
// the paper): besides each new node's edges, every arrival step adds
// extra edges between existing nodes with degree-proportional endpoints,
// so the average degree grows as the network ages.
package dynamic

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/kcore"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/walk"
)

// GrowthConfig parameterizes the evolution.
type GrowthConfig struct {
	// FinalNodes is the size of the final snapshot.
	FinalNodes int
	// Attach is the number of edges each arriving node creates.
	Attach int
	// DensifyEvery adds one extra edge between existing nodes every this
	// many arrivals (0 disables densification).
	DensifyEvery int
	// Snapshots lists the node counts at which to emit snapshots, in
	// increasing order; each must be > Attach and <= FinalNodes.
	Snapshots []int
	// Seed makes the evolution deterministic.
	Seed int64
}

func (c *GrowthConfig) validate() error {
	if c.Attach < 1 {
		return fmt.Errorf("dynamic: attach %d must be >= 1", c.Attach)
	}
	if c.FinalNodes <= c.Attach+1 {
		return fmt.Errorf("dynamic: final size %d must exceed attach+1", c.FinalNodes)
	}
	if c.DensifyEvery < 0 {
		return fmt.Errorf("dynamic: densify interval %d must be >= 0", c.DensifyEvery)
	}
	if len(c.Snapshots) == 0 {
		return fmt.Errorf("dynamic: need at least one snapshot size")
	}
	prev := c.Attach + 1
	for _, s := range c.Snapshots {
		if s <= prev-1 && s != prev {
			return fmt.Errorf("dynamic: snapshot sizes must be increasing and > attach, got %v", c.Snapshots)
		}
		if s < prev {
			return fmt.Errorf("dynamic: snapshot sizes must be increasing, got %v", c.Snapshots)
		}
		if s > c.FinalNodes {
			return fmt.Errorf("dynamic: snapshot %d exceeds final size %d", s, c.FinalNodes)
		}
		prev = s + 1
	}
	return nil
}

// Snapshot is the graph after growth reached a given node count.
type Snapshot struct {
	Nodes int
	Graph *graph.Graph
}

// Grow runs the evolution and returns one Snapshot per requested size.
// Snapshots are nested: every edge of an earlier snapshot exists in every
// later one. Each snapshot is built from the prefix of the arrival
// sequence logged up to it (graph.FromEdges), one CSR build per snapshot.
func Grow(cfg GrowthConfig) ([]Snapshot, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	edges, cuts := arrivals(cfg)
	snapshots := make([]Snapshot, len(cuts))
	for i, c := range cuts {
		nodes := cfg.Snapshots[i]
		g, err := graph.FromEdges(nodes, edges[:c])
		if err != nil {
			return nil, fmt.Errorf("dynamic: snapshot at n=%d: %w", nodes, err)
		}
		snapshots[i] = Snapshot{Nodes: nodes, Graph: g}
	}
	return snapshots, nil
}

// arrivals runs the evolution of a validated cfg and returns its edges in
// arrival order, repeats included, and for each requested snapshot the
// number of edges that had arrived when the graph reached its size. Every
// edge of such a prefix lies among the snapshot's nodes.
func arrivals(cfg GrowthConfig) (edges []graph.Edge, cuts []int) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	// repeated holds one entry per half-edge for degree-proportional
	// sampling, as in gen.BarabasiAlbert.
	var repeated []graph.NodeID
	addEdge := func(u, v graph.NodeID) {
		edges = append(edges, graph.Edge{U: u, V: v})
		repeated = append(repeated, u, v)
	}
	seedSize := cfg.Attach + 1
	for i := 0; i < seedSize; i++ {
		for j := i + 1; j < seedSize; j++ {
			addEdge(graph.NodeID(i), graph.NodeID(j))
		}
	}
	cuts = make([]int, 0, len(cfg.Snapshots))
	for len(cuts) < len(cfg.Snapshots) && cfg.Snapshots[len(cuts)] <= seedSize {
		cuts = append(cuts, len(edges))
	}
	targets := make(map[graph.NodeID]struct{}, cfg.Attach)
	ordered := make([]graph.NodeID, 0, cfg.Attach)
	for v := seedSize; v < cfg.FinalNodes; v++ {
		clear(targets)
		for len(targets) < cfg.Attach {
			targets[repeated[rng.Intn(len(repeated))]] = struct{}{}
		}
		// Sorted drain keeps the repeated-slice order — and therefore
		// the whole evolution — deterministic (map iteration is not).
		ordered = ordered[:0]
		for u := range targets {
			ordered = append(ordered, u)
		}
		sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })
		for _, u := range ordered {
			addEdge(graph.NodeID(v), u)
		}
		if cfg.DensifyEvery > 0 && (v-seedSize+1)%cfg.DensifyEvery == 0 {
			// Densification: one degree-proportional edge among existing
			// nodes (self loops guarded here, repeats merged by the
			// snapshot's graph build).
			a := repeated[rng.Intn(len(repeated))]
			b := repeated[rng.Intn(len(repeated))]
			if a != b {
				addEdge(a, b)
			}
		}
		if len(cuts) < len(cfg.Snapshots) && v+1 == cfg.Snapshots[len(cuts)] {
			cuts = append(cuts, len(edges))
		}
	}
	return edges, cuts
}

// TrackConfig tunes the per-snapshot measurement.
type TrackConfig struct {
	// Epsilon is the mixing target; defaults to 0.1 (curve-comparison
	// scale, as in Figure 1).
	Epsilon float64
	// MixingSources and MixingMaxSteps mirror walk.MixingConfig.
	MixingSources  int
	MixingMaxSteps int
	// ExpansionSources samples BFS cores (0 = all nodes).
	ExpansionSources int
	// Seed drives the randomized measurements.
	Seed int64
	// Workers bounds parallelism.
	Workers int
}

func (c *TrackConfig) fill() {
	if c.Epsilon == 0 {
		c.Epsilon = 0.1
	}
	if c.MixingSources == 0 {
		c.MixingSources = 20
	}
	if c.MixingMaxSteps == 0 {
		c.MixingMaxSteps = 100
	}
}

// TrackPoint is the measured state of one snapshot.
type TrackPoint struct {
	Nodes int
	Edges int64
	// AverageDegree tracks densification.
	AverageDegree float64
	// SLEM is μ of the snapshot.
	SLEM float64
	// MixingTime is T(Epsilon) by the sampling method; 0 when not
	// reached within the budget (see Mixed).
	MixingTime int
	Mixed      bool
	// MinAlpha is the sampled vertex-expansion analogue.
	MinAlpha float64
	// Degeneracy tracks core deepening over time.
	Degeneracy int
}

// Track measures every snapshot. Disconnected snapshots are reduced to
// their largest component first (early PA snapshots are connected by
// construction; densified variants may briefly not be).
func Track(ctx context.Context, snaps []Snapshot, cfg TrackConfig) ([]TrackPoint, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("dynamic: no snapshots to track")
	}
	cfg.fill()
	out := make([]TrackPoint, 0, len(snaps))
	for _, snap := range snaps {
		g := snap.Graph
		if !graph.IsConnected(g) {
			g, _ = graph.LargestComponent(g)
		}
		pt := TrackPoint{
			Nodes:         g.NumNodes(),
			Edges:         g.NumEdges(),
			AverageDegree: g.AverageDegree(),
		}
		sr, err := spectral.SLEMContext(ctx, g, spectral.Config{Tolerance: 1e-6, Seed: cfg.Seed, Workers: cfg.Workers})
		if err != nil {
			return nil, fmt.Errorf("dynamic: slem at n=%d: %w", snap.Nodes, err)
		}
		pt.SLEM = sr.SLEM

		mr, err := walk.MeasureMixing(ctx, g, walk.MixingConfig{
			MaxSteps: cfg.MixingMaxSteps,
			Sources:  cfg.MixingSources,
			Seed:     cfg.Seed,
			Workers:  cfg.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("dynamic: mixing at n=%d: %w", snap.Nodes, err)
		}
		pt.MixingTime, pt.Mixed = mr.MixingTime(cfg.Epsilon)

		ecfg := expansion.Config{Workers: cfg.Workers}
		if cfg.ExpansionSources > 0 {
			srcs, err := expansion.SampledSources(g, cfg.ExpansionSources, cfg.Seed)
			if err != nil {
				return nil, fmt.Errorf("dynamic: expansion sources at n=%d: %w", snap.Nodes, err)
			}
			ecfg.Sources = srcs
		}
		er, err := expansion.Measure(ctx, g, ecfg)
		if err != nil {
			return nil, fmt.Errorf("dynamic: expansion at n=%d: %w", snap.Nodes, err)
		}
		if a, ok := er.VertexExpansion(g.NumNodes()); ok {
			pt.MinAlpha = a
		}

		dec, err := kcore.Decompose(g)
		if err != nil {
			return nil, fmt.Errorf("dynamic: cores at n=%d: %w", snap.Nodes, err)
		}
		pt.Degeneracy = dec.Degeneracy()
		out = append(out, pt)
	}
	return out, nil
}
