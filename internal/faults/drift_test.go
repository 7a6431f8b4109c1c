package faults

import (
	"reflect"
	"testing"

	"github.com/trustnet/trustnet/internal/graph"
)

// liveEdges collects the live canonical edge set of a view, packed.
func liveEdges(v graph.View) map[uint64]bool {
	out := map[uint64]bool{}
	v.VisitEdges(func(e graph.Edge) bool {
		out[uint64(e.U)<<32|uint64(e.V)] = true
		return true
	})
	return out
}

func aliveSet(m *Model) []bool {
	out := make([]bool, m.Graph().NumNodes())
	for v := range out {
		out[v] = m.Alive(graph.NodeID(v))
	}
	return out
}

// TestAdvanceEpochDeltaEquivalence checks AdvanceEpochDelta against a
// brute-force diff of the live topology before and after each advance,
// with and without drift.
func TestAdvanceEpochDeltaEquivalence(t *testing.T) {
	g := epochGraph(t)
	for _, drift := range []float64{0, 0.02} {
		m, err := New(g, Config{Churn: 0.1, EdgeLoss: 0.05, Drift: drift, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var d *EpochDelta
		for e := 1; e <= 4; e++ {
			beforeAlive := aliveSet(m)
			beforeEdges := liveEdges(m.View())
			d = m.AdvanceEpochDelta(d)
			if d.Epoch != e {
				t.Fatalf("drift %v: delta epoch = %d, want %d", drift, d.Epoch, e)
			}
			afterAlive := aliveSet(m)
			afterEdges := liveEdges(m.View())

			var wantDown, wantUp []graph.NodeID
			for v := range beforeAlive {
				if beforeAlive[v] && !afterAlive[v] {
					wantDown = append(wantDown, graph.NodeID(v))
				} else if !beforeAlive[v] && afterAlive[v] {
					wantUp = append(wantUp, graph.NodeID(v))
				}
			}
			if !reflect.DeepEqual(append([]graph.NodeID{}, d.NodesDown...), append([]graph.NodeID{}, wantDown...)) {
				t.Fatalf("drift %v epoch %d: NodesDown = %v, want %v", drift, e, d.NodesDown, wantDown)
			}
			if !reflect.DeepEqual(append([]graph.NodeID{}, d.NodesUp...), append([]graph.NodeID{}, wantUp...)) {
				t.Fatalf("drift %v epoch %d: NodesUp = %v, want %v", drift, e, d.NodesUp, wantUp)
			}

			lost, gained := 0, 0
			for e2 := range beforeEdges {
				if !afterEdges[e2] {
					lost++
				}
			}
			for e2 := range afterEdges {
				if !beforeEdges[e2] {
					gained++
				}
			}
			if len(d.EdgesLost) != lost || len(d.EdgesGained) != gained {
				t.Fatalf("drift %v epoch %d: edge delta %d/%d, want %d/%d",
					drift, e, len(d.EdgesLost), len(d.EdgesGained), lost, gained)
			}
			for _, edge := range d.EdgesLost {
				k := uint64(edge.U)<<32 | uint64(edge.V)
				if !beforeEdges[k] || afterEdges[k] {
					t.Fatalf("drift %v epoch %d: EdgesLost reports %v which is not a lost live edge", drift, e, edge)
				}
			}
			for _, edge := range d.EdgesGained {
				k := uint64(edge.U)<<32 | uint64(edge.V)
				if beforeEdges[k] || !afterEdges[k] {
					t.Fatalf("drift %v epoch %d: EdgesGained reports %v which is not a gained live edge", drift, e, edge)
				}
			}
		}
	}
}

// TestDriftDeterministic checks that two drifting models with identical
// configs produce bit-identical schedules epoch by epoch.
func TestDriftDeterministic(t *testing.T) {
	g := epochGraph(t)
	cfg := Config{Churn: 0.15, EdgeLoss: 0.1, Drift: 0.03, Seed: 5}
	a, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 5; e++ {
		if e > 0 {
			a.AdvanceEpoch()
			b.AdvanceEpoch()
		}
		if scheduleFingerprint(a) != scheduleFingerprint(b) {
			t.Fatalf("epoch %d: drifting schedules diverge between identical models", e)
		}
	}
}

// TestDriftChangesAreSmall checks the point of drift: per-epoch deltas
// are a small fraction of the graph while down/lost totals stay near
// the configured marginals.
func TestDriftChangesAreSmall(t *testing.T) {
	g := epochGraph(t)
	cfg := Config{Churn: 0.1, EdgeLoss: 0.05, Drift: 0.02, Seed: 13}
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	var d *EpochDelta
	for e := 1; e <= 5; e++ {
		d = m.AdvanceEpochDelta(d)
		flips := len(d.NodesDown) + len(d.NodesUp)
		// Expected node flips ≈ 2·Drift·Churn·n ≈ 8 here; 5% of n would
		// mean the chain is redrawing, not drifting.
		if flips > n/20 {
			t.Fatalf("epoch %d: %d node flips out of %d — drift is not incremental", e, flips, n)
		}
		down := float64(m.NumDown()) / float64(n)
		if down > 3*cfg.Churn {
			t.Fatalf("epoch %d: down fraction %v drifted far above churn %v", e, down, cfg.Churn)
		}
	}
}

// TestDriftProtectedNodesNeverChurn checks protection holds across the
// drift chain, not just the epoch-0 draw.
func TestDriftProtectedNodesNeverChurn(t *testing.T) {
	g := epochGraph(t)
	protected := []graph.NodeID{0, 7, 99}
	m, err := New(g, Config{Churn: 0.3, EdgeLoss: 0.1, Drift: 0.5, Seed: 2, Protected: protected})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 8; e++ {
		for _, v := range protected {
			if !m.Alive(v) {
				t.Fatalf("epoch %d: protected node %d churned", e, v)
			}
		}
		m.AdvanceEpoch()
	}
}
