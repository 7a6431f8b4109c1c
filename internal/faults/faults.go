// Package faults provides the deterministic fault-injection and churn
// model the robustness experiments run the trustworthy-computing
// applications (the Whānau-style DHT, GateKeeper, SybilLimit, ...)
// under. The paper's guarantees (§I–II) are derived on a static,
// fully-available social graph; real deployments of the same protocols
// (distributed mixing-time computation, distributed k-core
// decomposition) face node churn, link loss, and message-level
// failures. This package turns those failure classes into a seeded,
// reproducible schedule:
//
//   - node churn: a fraction of nodes crash or leave, losing all their
//     incident edges (they stay in the ID space, isolated, so node
//     identifiers remain dense and honest/sybil bookkeeping holds);
//   - edge loss: a fraction of the surviving edges drop independently
//     (a lost friendship link, a failed overlay connection);
//   - message drop: each simulated message is lost with a fixed
//     probability at delivery time;
//   - latency: each delivered message costs a random number of
//     simulated ticks, so protocols can account timeouts and backoff
//     in a common simulated-time unit.
//
// The schedule (which nodes are down, which edges are lost) is a pure
// function of (seed, epoch): two models built with identical
// configurations are identical, and AdvanceEpoch re-draws the next
// epoch's schedule from derived seeds, also deterministically.
// Message-level randomness is a separate seeded stream, so structural
// determinism is independent of how many messages a protocol sends.
//
// With Config.Drift > 0 epochs stop being independent redraws and
// become a birth–death evolution of the previous epoch's schedule:
// each node and edge flips state with a small per-epoch probability
// chosen so the stationary marginals stay Churn and EdgeLoss. That
// makes consecutive epochs differ by O(Drift·(Churn·n + EdgeLoss·m))
// elements — the regime the incremental measurement pipelines
// (internal/incremental) exploit — and AdvanceEpochDelta reports the
// exact live-topology difference of each advance as an EpochDelta.
//
// Complexity: New builds a model in O(n + m) (one pass over nodes for
// the churn draw, one over edges for the loss draw) applied to a
// graph.MaskedView of the substrate — no degraded-graph rebuild.
// Advancing an epoch costs the same two passes and allocates O(1);
// measurements run directly on View(). Alive/EdgeUp checks are O(1) and
// O(log deg), and each Deliver costs O(1) RNG draws.
package faults

import (
	"fmt"
	"math/rand"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/obs"
)

// Observability instruments for the fault schedule, resolved once at
// init and written once per epoch draw — the draw's RNG streams are
// untouched, so schedules stay bit-identical with metrics enabled.
var (
	obsEpochDraws  = obs.Default().Counter("faults.epoch.draws")
	obsEpochDrifts = obs.Default().Counter("faults.epoch.drifts")
	obsNodesMasked = obs.Default().Counter("faults.epoch.nodes_masked")
	obsEdgesMasked = obs.Default().Counter("faults.epoch.edges_masked")
)

// Config parameterizes a fault model.
type Config struct {
	// Churn is the fraction of nodes down (crashed or departed), in
	// [0, 1). Down nodes lose every incident edge.
	Churn float64
	// EdgeLoss is the probability each edge between two up nodes is
	// independently lost, in [0, 1).
	EdgeLoss float64
	// MsgDrop is the probability an individual message is dropped at
	// delivery time, in [0, 1).
	MsgDrop float64
	// LatencyMean is the mean simulated latency of a delivered message
	// in ticks; each delivery costs 1 + Exp(LatencyMean) ticks. 0 means
	// every delivery costs exactly 1 tick.
	LatencyMean float64
	// Drift, when positive, evolves the epoch-0 schedule instead of
	// redrawing each epoch independently. On every AdvanceEpoch each
	// down node revives with probability Drift and each up unprotected
	// node churns with probability Drift·Churn/(1−Churn); each dropped
	// edge is restored with probability Drift and each present edge
	// drops with probability Drift·EdgeLoss/(1−EdgeLoss). Those rates
	// make Churn and EdgeLoss the stationary marginals of the chain
	// while consecutive epochs differ only by O(Drift·(Churn·n +
	// EdgeLoss·m)) elements. In [0, 1]; 0 keeps the historical
	// independent-redraw behavior.
	Drift float64
	// Seed makes the fault schedule and the message stream
	// deterministic.
	Seed int64
	// Protected nodes never churn — the verifier or controller of a
	// defense run, which by definition is the live node asking the
	// question.
	Protected []graph.NodeID
}

func (c Config) validate() error {
	if c.Churn < 0 || c.Churn >= 1 {
		return fmt.Errorf("faults: churn %v out of [0,1)", c.Churn)
	}
	if c.EdgeLoss < 0 || c.EdgeLoss >= 1 {
		return fmt.Errorf("faults: edge loss %v out of [0,1)", c.EdgeLoss)
	}
	if c.MsgDrop < 0 || c.MsgDrop >= 1 {
		return fmt.Errorf("faults: message drop %v out of [0,1)", c.MsgDrop)
	}
	if c.LatencyMean < 0 {
		return fmt.Errorf("faults: latency mean %v must be >= 0", c.LatencyMean)
	}
	if c.Drift < 0 || c.Drift > 1 {
		return fmt.Errorf("faults: drift %v out of [0,1]", c.Drift)
	}
	return nil
}

// Model is a fault schedule over one graph plus a message-level fault
// stream. The structural schedule (down nodes, lost edges) is held as a
// graph.MaskedView over the substrate and is re-drawn per epoch by
// AdvanceEpoch; between epoch advances it is immutable. Deliver consumes
// the message stream, and AdvanceEpoch mutates the view, so a model is
// not safe for concurrent use — create one per goroutine, or fence epoch
// advances from concurrent measurement.
type Model struct {
	cfg       Config
	g         *graph.Graph
	view      *graph.MaskedView
	protected []bool
	epoch     int
	numLost   int
	msgRNG    *rand.Rand

	// candidates is the churn-draw scratch, reused across epochs.
	candidates []graph.NodeID
	// prevSnap is the AdvanceEpochDelta scratch: the mask state of the
	// epoch being left, reused across advances.
	prevSnap *graph.MaskSnapshot
	// degraded caches Degraded() per epoch in reusable CSR buffers.
	degraded      *graph.Graph
	degradedEpoch int
	matOff        []int64
	matAdj        []graph.NodeID
}

// New builds the epoch-0 fault schedule for g: it samples floor(Churn·n)
// unprotected nodes to take down and then drops each remaining edge
// with probability EdgeLoss, all deterministically from cfg.Seed. The
// schedule is applied to a zero-copy MaskedView of g; nothing is
// rebuilt.
func New(g *graph.Graph, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	m := &Model{
		cfg:           cfg,
		g:             g,
		view:          graph.NewMaskedView(g),
		protected:     make([]bool, n),
		msgRNG:        rand.New(rand.NewSource(cfg.Seed + 2)),
		candidates:    make([]graph.NodeID, 0, n),
		degradedEpoch: -1,
	}
	for _, v := range cfg.Protected {
		if !g.Valid(v) {
			return nil, fmt.Errorf("faults: protected node %d out of range", v)
		}
		m.protected[v] = true
	}
	m.drawEpoch(0)
	return m, nil
}

// drawEpoch resets the view and draws epoch e's structural schedule.
// Epoch e's churn stream is seeded with Seed+3e and its edge-loss stream
// with Seed+3e+1, so epoch 0 reproduces the historical Seed/Seed+1
// schedule exactly and no structural stream ever collides with the
// message stream at Seed+2.
func (m *Model) drawEpoch(e int) {
	m.view.Reset()
	m.numLost = 0
	n := m.g.NumNodes()

	if m.cfg.Churn > 0 {
		rng := rand.New(rand.NewSource(m.cfg.Seed + 3*int64(e)))
		candidates := m.candidates[:0]
		for v := graph.NodeID(0); int(v) < n; v++ {
			if !m.protected[v] {
				candidates = append(candidates, v)
			}
		}
		rng.Shuffle(len(candidates), func(i, j int) {
			candidates[i], candidates[j] = candidates[j], candidates[i]
		})
		take := int(m.cfg.Churn * float64(n))
		if take > len(candidates) {
			take = len(candidates)
		}
		for _, v := range candidates[:take] {
			m.view.SetAlive(v, false)
		}
		m.candidates = candidates
	}

	if m.cfg.EdgeLoss > 0 {
		rng := rand.New(rand.NewSource(m.cfg.Seed + 3*int64(e) + 1))
		// Iterate edges in canonical order so the loss set depends only
		// on the seed and the graph, not on traversal incidentals. Edges
		// with a churned endpoint are already gone and draw nothing.
		m.g.VisitEdges(func(edge graph.Edge) bool {
			if !m.view.Alive(edge.U) || !m.view.Alive(edge.V) {
				return true
			}
			if rng.Float64() < m.cfg.EdgeLoss {
				m.view.DropEdge(edge.U, edge.V)
				m.numLost++
			}
			return true
		})
	}

	obsEpochDraws.Inc()
	obsNodesMasked.Add(int64(n - m.view.NumAlive()))
	obsEdgesMasked.Add(int64(m.numLost))
}

// driftEpoch evolves the current schedule into epoch e's by the
// birth–death chain described on Config.Drift, drawing node transitions
// from the Seed+3e stream and edge transitions from the Seed+3e+1
// stream — the same per-epoch seed derivation drawEpoch uses, so drift
// and redraw schedules never share a stream. Every unprotected node and
// every substrate edge consumes exactly one uniform draw regardless of
// its state, which keeps the streams aligned under replay. Cost is one
// pass over nodes and one over edges, reading each edge's drop bit at
// its adjacency slot (MaskedView.VisitSubstrateEdges), plus O(flips·deg)
// mask updates. A flipped edge's DropEdge or RestoreEdge still searches
// its two rows for its slots, which costs little: at the stationary
// marginals about 2·Drift·EdgeLoss of the edges flip per epoch.
func (m *Model) driftEpoch(e int) {
	n := m.g.NumNodes()

	pRevive := m.cfg.Drift
	pChurn := 0.0
	if m.cfg.Churn > 0 {
		pChurn = m.cfg.Drift * m.cfg.Churn / (1 - m.cfg.Churn)
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed + 3*int64(e)))
	for v := graph.NodeID(0); int(v) < n; v++ {
		if m.protected[v] {
			continue
		}
		u := rng.Float64()
		if m.view.Alive(v) {
			if u < pChurn {
				m.view.SetAlive(v, false)
			}
		} else if u < pRevive {
			m.view.SetAlive(v, true)
		}
	}

	pRestore := m.cfg.Drift
	pDrop := 0.0
	if m.cfg.EdgeLoss > 0 {
		pDrop = m.cfg.Drift * m.cfg.EdgeLoss / (1 - m.cfg.EdgeLoss)
	}
	erng := rand.New(rand.NewSource(m.cfg.Seed + 3*int64(e) + 1))
	m.view.VisitSubstrateEdges(func(edge graph.Edge, dropped bool) bool {
		u := erng.Float64()
		if dropped {
			if u < pRestore {
				m.view.RestoreEdge(edge.U, edge.V)
				m.numLost--
			}
		} else if u < pDrop {
			m.view.DropEdge(edge.U, edge.V)
			m.numLost++
		}
		return true
	})

	obsEpochDrifts.Inc()
	obsNodesMasked.Add(int64(n - m.view.NumAlive()))
	obsEdgesMasked.Add(int64(m.numLost))
}

// Epoch returns the current epoch index, starting at 0.
func (m *Model) Epoch() int { return m.epoch }

// AdvanceEpoch moves the structural schedule to the next epoch: a
// fresh churn sample and edge-loss draw from the epoch-derived seeds,
// or — with Config.Drift set — one birth–death evolution step of the
// current schedule. The message stream keeps running across epochs.
// Cost is one pass over the nodes and one over the substrate's edges
// (the drift sweep reads each edge's drop bit at its adjacency slot),
// with O(1) allocation and no graph rebuild. The next Degraded call
// rebuilds the epoch's CSR into the buffers of the previous one, so a
// CSR Degraded returned is stale once AdvanceEpoch runs; AdvanceEpoch
// must not run concurrently with measurements on View() or Degraded().
func (m *Model) AdvanceEpoch() {
	m.epoch++
	if m.cfg.Drift > 0 {
		m.driftEpoch(m.epoch)
	} else {
		m.drawEpoch(m.epoch)
	}
}

// EpochDelta is the live-topology difference one AdvanceEpochDelta call
// observed: which nodes went down or came up and which edges stopped or
// started being live, in the graph.MaskDelta sense (an edge counts as
// lost whether it was dropped outright or lost an endpoint to churn).
// It is the contract between the fault schedule and the incremental
// measurement pipelines.
type EpochDelta struct {
	// Epoch is the epoch the delta leads into: the delta transforms
	// epoch Epoch−1's live topology into epoch Epoch's.
	Epoch int
	// MaskDelta holds the sorted, duplicate-free change sets.
	graph.MaskDelta
}

// AdvanceEpochDelta is AdvanceEpoch plus delta reporting: it snapshots
// the current schedule, advances one epoch, and returns the exact
// live-topology difference between the two, appending into d's slices
// when non-nil (allocating otherwise). The snapshot scratch lives in
// the model, so steady-state advances allocate nothing beyond delta
// growth. Note that without Config.Drift consecutive epochs are
// independent draws and the delta is typically O(Churn·n + EdgeLoss·m)
// — set Drift to make deltas small enough for incremental measurement
// to win.
func (m *Model) AdvanceEpochDelta(d *EpochDelta) *EpochDelta {
	if d == nil {
		d = &EpochDelta{}
	}
	m.prevSnap = m.view.Snapshot(m.prevSnap)
	m.AdvanceEpoch()
	m.view.DiffSnapshot(m.prevSnap, &d.MaskDelta)
	d.Epoch = m.epoch
	return d
}

// View returns the degraded graph as a zero-copy graph.MaskedView: hand
// it straight to walk/expansion/kcore/... without any per-epoch rebuild.
// The view is re-drawn in place by AdvanceEpoch. Each pass over it pays
// the mask checks; a caller that reads one epoch more than once reads
// Degraded instead.
func (m *Model) View() *graph.MaskedView { return m.view }

// Config returns the configuration the model was built with.
func (m *Model) Config() Config { return m.cfg }

// Graph returns the pristine graph the schedule was drawn over.
func (m *Model) Graph() *graph.Graph { return m.g }

// Alive reports whether v survived the churn schedule.
func (m *Model) Alive(v graph.NodeID) bool {
	return m.g.Valid(v) && m.view.Alive(v)
}

// EdgeUp reports whether the edge (u, v) is usable: both endpoints
// alive and the edge itself not lost.
func (m *Model) EdgeUp(u, v graph.NodeID) bool {
	return m.Alive(u) && m.Alive(v) && !m.view.Dropped(u, v)
}

// Degraded returns the current epoch's degraded graph as a materialized
// CSR *Graph: same node set (IDs stay dense so honest/sybil bookkeeping
// holds), with down nodes isolated and lost edges removed. It is built
// lazily from the view into buffers the model reuses, so after the first
// call it allocates only a fixed header per epoch. The result is valid
// until the next AdvanceEpoch. Building it costs about one pass over the
// view, and on the epochs benchmark's graph a k-core peel or a
// largest-component search ran about twice as fast on it as on the view
// (INCREMENTAL.md), so it pays once an epoch is read more than once, as
// the incremental engine reads it.
func (m *Model) Degraded() *graph.Graph {
	if m.degraded == nil || m.degradedEpoch != m.epoch {
		m.degraded, m.matOff, m.matAdj = graph.MaterializeInto(m.view, m.matOff, m.matAdj)
		m.degradedEpoch = m.epoch
	}
	return m.degraded
}

// NumDown returns the number of churned nodes.
func (m *Model) NumDown() int { return m.g.NumNodes() - m.view.NumAlive() }

// NumLostEdges returns the number of substrate edges currently
// drop-masked independently of churn. Under drift an edge can carry a
// drop mask while an endpoint is down (the masks evolve separately),
// so this may exceed the count of live edges removed by loss alone.
func (m *Model) NumLostEdges() int { return m.numLost }

// Delivery is the outcome of one simulated message send.
type Delivery struct {
	// OK reports whether the message arrived.
	OK bool
	// Ticks is the simulated latency the send cost (also charged for
	// drops: the sender finds out by timing out, which its own timeout
	// accounting covers).
	Ticks int
}

// Deliver simulates sending one message from u to v over the current
// schedule: it fails when either endpoint is down, when every path
// between them is irrelevant (the caller chooses routing; Deliver only
// models the directly-addressed message), or with probability MsgDrop;
// otherwise it succeeds after 1 + Exp(LatencyMean) ticks. Deliver
// advances the seeded message stream and is not safe for concurrent
// use.
func (m *Model) Deliver(u, v graph.NodeID) Delivery {
	if !m.Alive(u) || !m.Alive(v) {
		return Delivery{OK: false}
	}
	if m.cfg.MsgDrop > 0 && m.msgRNG.Float64() < m.cfg.MsgDrop {
		return Delivery{OK: false}
	}
	ticks := 1
	if m.cfg.LatencyMean > 0 {
		ticks += int(m.msgRNG.ExpFloat64() * m.cfg.LatencyMean)
	}
	return Delivery{OK: true, Ticks: ticks}
}
