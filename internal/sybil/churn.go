package sybil

import (
	"fmt"

	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/graph"
)

// Degrade returns the attack instance as a fault schedule leaves it:
// the combined graph is the model's degraded graph (down nodes
// isolated, lost edges removed), the honest graph loses the same nodes
// and edges, and only attack edges whose endpoints both survived — and
// which were not independently lost — remain. Node IDs are unchanged,
// so IsHonest and every defense's verifier bookkeeping keep working on
// the degraded instance.
//
// The model must have been built over a.Combined: churn is a property
// of the deployed (honest + sybil) population, and sybil identities
// churn too — an adversary's machines fail like anyone else's unless it
// pays to keep them up.
func Degrade(a *Attack, m *faults.Model) (*Attack, error) {
	if m.Graph() != a.Combined {
		return nil, fmt.Errorf("sybil: fault model built over %v, want the attack's combined graph %v",
			m.Graph(), a.Combined)
	}
	combined := m.Degraded()

	// The degraded honest region is the degraded graph induced on the
	// honest IDs: honest nodes are [0, h), so induced local IDs coincide
	// with the original ones, and every surviving combined edge between
	// two honest nodes is an honest edge (attack edges always cross into
	// the sybil region).
	honestIDs := make([]graph.NodeID, a.Honest.NumNodes())
	for i := range honestIDs {
		honestIDs[i] = graph.NodeID(i)
	}

	surviving := make([]graph.Edge, 0, len(a.AttackEdges))
	for _, e := range a.AttackEdges {
		if m.EdgeUp(e.U, e.V) {
			surviving = append(surviving, e)
		}
	}
	return &Attack{
		Honest:      graph.InducedSubgraph(combined, honestIDs),
		Combined:    combined,
		HonestNodes: a.HonestNodes,
		AttackEdges: surviving,
	}, nil
}

// EvaluateAlive is Evaluate restricted to nodes the fault model left
// up: churned honest nodes are neither penalized as rejected nor
// credited as accepted (they are gone, not refused), and churned sybils
// cannot count as admitted. Admissions are still normalized by the
// *surviving* attack edges of the degraded instance passed in.
func EvaluateAlive(a *Attack, accepted []bool, verifier graph.NodeID, m *faults.Model) (Metrics, error) {
	if len(accepted) != a.Combined.NumNodes() {
		return Metrics{}, fmt.Errorf("sybil: acceptance vector length %d, want %d",
			len(accepted), a.Combined.NumNodes())
	}
	if !a.Combined.Valid(verifier) {
		return Metrics{}, fmt.Errorf("sybil: verifier %d out of range", verifier)
	}
	mt := Metrics{AttackEdges: len(a.AttackEdges)}
	for v, ok := range accepted {
		node := graph.NodeID(v)
		if node == verifier || !m.Alive(node) {
			continue
		}
		if a.IsHonest(node) {
			mt.HonestTotal++
			if ok {
				mt.HonestAccepted++
			}
		} else if ok {
			mt.SybilAccepted++
		}
	}
	return mt, nil
}
