package dynamic

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"testing"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/obs"
)

func grow(t *testing.T, cfg GrowthConfig) []Snapshot {
	t.Helper()
	snaps, err := Grow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return snaps
}

func TestGrowSnapshotsNested(t *testing.T) {
	for _, cfg := range []GrowthConfig{
		{FinalNodes: 400, Attach: 3, Snapshots: []int{100, 200, 400}, Seed: 1},
		// Densified growth adds edges among old nodes and repeats some.
		{FinalNodes: 300, Attach: 3, DensifyEvery: 1, Snapshots: []int{4, 50, 51, 300}, Seed: 4},
	} {
		snaps := grow(t, cfg)
		if len(snaps) != len(cfg.Snapshots) {
			t.Fatalf("snapshots = %d, want %d", len(snaps), len(cfg.Snapshots))
		}
		for i, s := range snaps {
			if s.Graph.NumNodes() != s.Nodes {
				t.Errorf("snapshot %d: graph has %d nodes, header says %d", i, s.Graph.NumNodes(), s.Nodes)
			}
			if !graph.IsConnected(s.Graph) {
				t.Errorf("snapshot %d not connected", i)
			}
		}
		// Nesting: every edge of snapshot i is in snapshot i+1.
		for i := 0; i+1 < len(snaps); i++ {
			for _, e := range snaps[i].Graph.Edges() {
				if !snaps[i+1].Graph.HasEdge(e.U, e.V) {
					t.Fatalf("edge %v of snapshot %d missing from snapshot %d", e, i, i+1)
				}
			}
		}
		// Each snapshot holds exactly the distinct edges of its arrival
		// prefix, all among its nodes.
		edges, cuts := arrivals(cfg)
		for i, c := range cuts {
			set := map[graph.Edge]bool{}
			for _, e := range edges[:c] {
				if int(e.U) >= snaps[i].Nodes || int(e.V) >= snaps[i].Nodes {
					t.Fatalf("snapshot %d: arrival %v outside its %d nodes", i, e, snaps[i].Nodes)
				}
				set[e.Canonical()] = true
			}
			want := make([]graph.Edge, 0, len(set))
			for e := range set {
				want = append(want, e)
			}
			slices.SortFunc(want, func(a, b graph.Edge) int {
				return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
			})
			if got := snaps[i].Graph.Edges(); !slices.Equal(got, want) {
				t.Fatalf("snapshot %d: %d edges, want the %d distinct edges of its %d arrivals", i, len(got), len(want), c)
			}
		}
	}
}

func TestGrowDensification(t *testing.T) {
	plain := grow(t, GrowthConfig{
		FinalNodes: 600, Attach: 3, Snapshots: []int{150, 600}, Seed: 2,
	})
	dense := grow(t, GrowthConfig{
		FinalNodes: 600, Attach: 3, DensifyEvery: 2, Snapshots: []int{150, 600}, Seed: 2,
	})
	// Densified growth must raise average degree over time relative to
	// plain PA (which keeps it ~2·attach).
	plainDeg := plain[1].Graph.AverageDegree()
	denseDeg := dense[1].Graph.AverageDegree()
	if denseDeg <= plainDeg {
		t.Errorf("densified avg degree %v <= plain %v", denseDeg, plainDeg)
	}
	// And the densified graph ages denser: later snapshot denser than
	// earlier one.
	if dense[1].Graph.AverageDegree() <= dense[0].Graph.AverageDegree() {
		t.Errorf("densified graph did not densify: %v -> %v",
			dense[0].Graph.AverageDegree(), dense[1].Graph.AverageDegree())
	}
}

func TestGrowValidation(t *testing.T) {
	bad := []GrowthConfig{
		{FinalNodes: 100, Attach: 0, Snapshots: []int{50}},
		{FinalNodes: 3, Attach: 3, Snapshots: []int{3}},
		{FinalNodes: 100, Attach: 3, Snapshots: nil},
		{FinalNodes: 100, Attach: 3, Snapshots: []int{50, 40}},
		{FinalNodes: 100, Attach: 3, Snapshots: []int{150}},
		{FinalNodes: 100, Attach: 3, DensifyEvery: -1, Snapshots: []int{50}},
	}
	for _, cfg := range bad {
		if _, err := Grow(cfg); err == nil {
			t.Errorf("Grow(%+v): want error", cfg)
		}
	}
}

func TestGrowDeterministic(t *testing.T) {
	a := grow(t, GrowthConfig{FinalNodes: 200, Attach: 2, Snapshots: []int{200}, Seed: 9})
	b := grow(t, GrowthConfig{FinalNodes: 200, Attach: 2, Snapshots: []int{200}, Seed: 9})
	ea := a[0].Graph.Edges()
	eb := b[0].Graph.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestTrackStablePropertiesUnderGrowth(t *testing.T) {
	// The open-problem measurement: PA growth keeps the graph fast-mixing
	// and well-expanding at every age — the properties are stable under
	// this evolution model.
	snaps := grow(t, GrowthConfig{
		FinalNodes: 800, Attach: 4, Snapshots: []int{100, 200, 400, 800}, Seed: 3,
	})
	points, err := Track(context.Background(), snaps, TrackConfig{
		Seed: 1, ExpansionSources: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	for i, p := range points {
		if !p.Mixed {
			t.Errorf("snapshot %d (n=%d) did not mix within budget", i, p.Nodes)
		}
		if p.SLEM <= 0 || p.SLEM > 0.9 {
			t.Errorf("snapshot %d: SLEM %v, want a fast mixer (<= 0.9)", i, p.SLEM)
		}
		if p.MinAlpha <= 0 {
			t.Errorf("snapshot %d: min alpha %v", i, p.MinAlpha)
		}
		if p.Degeneracy != 4 {
			t.Errorf("snapshot %d: degeneracy %d, want attach=4", i, p.Degeneracy)
		}
	}
	// Mixing time grows at most logarithmically: the largest snapshot
	// should not need more than ~3x the steps of the smallest.
	if points[3].MixingTime > 3*points[0].MixingTime+3 {
		t.Errorf("mixing time grew from %d to %d across 8x growth; expected ~log scaling",
			points[0].MixingTime, points[3].MixingTime)
	}
}

func TestTrackValidation(t *testing.T) {
	if _, err := Track(context.Background(), nil, TrackConfig{}); err == nil {
		t.Error("Track(no snapshots): want error")
	}
}

// Track's SLEM runs under Track's context: an already-canceled run
// returns context.Canceled before its first Lanczos step.
func TestTrackCanceledRunsNoLanczosStep(t *testing.T) {
	snaps := grow(t, GrowthConfig{FinalNodes: 200, Attach: 3, Snapshots: []int{200}, Seed: 1})
	iterations := obs.Default().Counter("spectral.slem.iterations")
	before := iterations.Value()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Track(ctx, snaps, TrackConfig{Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := iterations.Value() - before; got != 0 {
		t.Fatalf("canceled track ran %d Lanczos steps, want 0", got)
	}
}
