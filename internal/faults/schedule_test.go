package faults

import (
	"testing"

	"github.com/trustnet/trustnet/internal/graph"
)

// scheduleFingerprint returns a 64-bit FNV-1a digest of m's current
// epoch's structural schedule: the down-node set and the lost-edge set,
// both visited in canonical order. Two models agree on the fingerprint
// exactly when they agree on the degraded topology, so a test can prove
// two sweeps' schedules bit-identical without storing the schedules
// themselves.
func scheduleFingerprint(m *Model) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	n := m.g.NumNodes()
	for v := graph.NodeID(0); int(v) < n; v++ {
		if !m.view.Alive(v) {
			mix(uint64(v))
		}
	}
	mix(^uint64(0)) // separates the node section from the edge section
	m.g.VisitEdges(func(edge graph.Edge) bool {
		if m.view.Alive(edge.U) && m.view.Alive(edge.V) && m.view.Dropped(edge.U, edge.V) {
			mix(uint64(edge.U)<<32 | uint64(edge.V))
		}
		return true
	})
	return h
}

// Distinct epochs should (overwhelmingly) have distinct fingerprints —
// the digest actually sees the schedule, not just its size.
func TestScheduleFingerprintDistinguishesEpochs(t *testing.T) {
	g := testGraph(t)
	m, err := New(g, Config{Churn: 0.25, EdgeLoss: 0.1, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{scheduleFingerprint(m): 0}
	for e := 1; e <= 8; e++ {
		m.AdvanceEpoch()
		fp := scheduleFingerprint(m)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("epochs %d and %d share fingerprint %x", prev, e, fp)
		}
		seen[fp] = e
	}
}

// An epoch sweep that measures between advances — reading the view and
// exercising the message stream — must walk the exact schedule sequence
// of a sweep that only advances: measurements consume no structural
// randomness.
func TestEpochSweepMeasurementsLeaveScheduleBitIdentical(t *testing.T) {
	g := testGraph(t)
	cfg := Config{Churn: 0.3, EdgeLoss: 0.15, MsgDrop: 0.1, LatencyMean: 2, Seed: 7}
	const epochs = 6

	clean, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		if e > 0 {
			clean.AdvanceEpoch()
			m.AdvanceEpoch()
		}
		for k := 0; k < 3; k++ {
			m.View().NumAlive()
			m.Deliver(0, 1)
		}
		if got, want := scheduleFingerprint(m), scheduleFingerprint(clean); got != want {
			t.Fatalf("epoch %d: fingerprint %x after measuring, want %x (schedule perturbed)", e, got, want)
		}
	}
}
