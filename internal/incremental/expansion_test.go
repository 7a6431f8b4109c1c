package incremental

import (
	"context"
	"slices"
	"testing"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/parallel"
)

// sweepGraph is the BA graph the maintainer and engine sweeps run on.
func sweepGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(3000, 6, 41)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func expansionSources(t *testing.T, g *graph.Graph, k int) []graph.NodeID {
	t.Helper()
	srcs, err := expansion.SampledSources(g, k, 99)
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

// clusteredSweep returns the quick epoch sweep's clustered graph, fault
// schedule and 128 envelope sources (internal/experiments, epochs.go).
func clusteredSweep(t testing.TB) (*graph.Graph, faults.Config, []graph.NodeID) {
	t.Helper()
	g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities: 10, CommunitySize: 200, Attach: 8, Bridges: 4, Seed: 97,
	})
	if err != nil {
		t.Fatal(err)
	}
	srcs, err := expansion.SampledSources(g, 128, parallel.SeedFor(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	return g, faults.Config{Churn: 0.1, EdgeLoss: 0.05, Drift: 0.005, Seed: 1}, srcs
}

// checkExpansionExact compares the maintainer's whole state against
// fresh BFSs on the same view: every source's distance field against a
// graph.BFSWorker on the materialized view, and the folded Result
// against a from-scratch expansion.Measure (per-source level counts
// bit-identical, the derived aggregates equal).
func checkExpansionExact(t *testing.T, epoch int, em *ExpansionMaintainer, view *graph.MaskedView) {
	t.Helper()
	bfs := graph.NewBFSWorker(graph.Materialize(view))
	for i, src := range em.Sources() {
		res, err := bfs.Run(src)
		if err != nil {
			t.Fatal(err)
		}
		for v, want := range res.Dist {
			if got := em.dist[i][v]; got != want {
				t.Fatalf("epoch %d source %d: dist[%d] = %d maintained, fresh BFS says %d",
					epoch, src, v, got, want)
			}
		}
	}

	ctx := context.Background()
	got, err := em.Measure(ctx)
	if err != nil {
		t.Fatalf("epoch %d: incremental measure: %v", epoch, err)
	}
	want, err := expansion.Measure(ctx, view, expansion.Config{Sources: em.Sources(), Workers: 1})
	if err != nil {
		t.Fatalf("epoch %d: full measure: %v", epoch, err)
	}
	gl, wl := got.Checkpoint().Levels, want.Checkpoint().Levels
	for i := range wl {
		if !slices.Equal(gl[i], wl[i]) {
			t.Fatalf("epoch %d source %d: levels %v maintained, full BFS says %v",
				epoch, em.Sources()[i], gl[i], wl[i])
		}
	}
	if got.MaxEccentricity != want.MaxEccentricity {
		t.Fatalf("epoch %d: MaxEccentricity %d != %d", epoch, got.MaxEccentricity, want.MaxEccentricity)
	}
	if got.Sources != want.Sources {
		t.Fatalf("epoch %d: %d sources != %d", epoch, got.Sources, want.Sources)
	}
}

// TestEquivalenceExpansionMaintainerDriftSweep drives a drifting fault
// model and checks the maintained BFS state against fresh BFSs at
// every epoch.
func TestEquivalenceExpansionMaintainerDriftSweep(t *testing.T) {
	g := sweepGraph(t)
	srcs := expansionSources(t, g, 16)
	m, err := faults.New(g, faults.Config{Churn: 0.1, EdgeLoss: 0.05, Drift: 0.02, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	em, err := NewExpansionMaintainer(m.Degraded(), srcs, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkExpansionExact(t, 0, em, m.View())
	var d *faults.EpochDelta
	for e := 1; e <= 8; e++ {
		d = m.AdvanceEpochDelta(d)
		em.Apply(d, m.Degraded())
		checkExpansionExact(t, e, em, m.View())
	}
}

// TestEquivalenceExpansionMaintainerWorkerCounts repairs the same drift
// sweep with one worker and with four: the distance fields and levels
// must be identical after every Apply.
func TestEquivalenceExpansionMaintainerWorkerCounts(t *testing.T) {
	g, fcfg, srcs := clusteredSweep(t)
	fcfg.Drift = 0.02
	m, err := faults.New(g, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	var ems [2]*ExpansionMaintainer
	for k, workers := range []int{1, 4} {
		if ems[k], err = NewExpansionMaintainer(m.Degraded(), srcs, workers); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(ems[1].slots); got != 4 {
		t.Fatalf("workers=4 maintainer has %d slots", got)
	}
	var d *faults.EpochDelta
	for e := 0; e <= 8; e++ {
		if e > 0 {
			d = m.AdvanceEpochDelta(d)
			g := m.Degraded()
			ems[0].Apply(d, g)
			ems[1].Apply(d, g)
			if ems[0].last != ems[1].last {
				t.Fatalf("epoch %d: repair counts %+v at 1 worker, %+v at 4", e, ems[0].last, ems[1].last)
			}
		}
		for i, src := range srcs {
			if !slices.Equal(ems[0].dist[i], ems[1].dist[i]) {
				t.Fatalf("epoch %d source %d: distance fields differ between 1 and 4 workers", e, src)
			}
			if !slices.Equal(ems[0].levels[i], ems[1].levels[i]) {
				t.Fatalf("epoch %d source %d: levels %v at 1 worker, %v at 4", e, src, ems[0].levels[i], ems[1].levels[i])
			}
		}
	}
}

// TestEquivalenceExpansionMaintainerSourceOrder repairs the same drift
// sweep with the sources in sampled, reversed and sorted order, at one
// worker and at three. The rebuild batches are cut in node-ID order
// whatever the source order, so each order puts other sources' lanes
// next to each other only through the batch boundaries and the worker
// slots; every source's distance field and levels must still be the
// same after every Apply, and so must the repair counts, which include
// budget fallbacks that were rebuilt.
func TestEquivalenceExpansionMaintainerSourceOrder(t *testing.T) {
	g, fcfg, sampled := clusteredSweep(t)
	fcfg.Drift = 0.02
	m, err := faults.New(g, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	reversed := slices.Clone(sampled)
	slices.Reverse(reversed)
	sorted := slices.Clone(sampled)
	slices.Sort(sorted)
	var ems []*ExpansionMaintainer
	for _, srcs := range [][]graph.NodeID{sampled, reversed, sorted} {
		for _, workers := range []int{1, 3} {
			em, err := NewExpansionMaintainer(m.Degraded(), srcs, workers)
			if err != nil {
				t.Fatal(err)
			}
			ems = append(ems, em)
		}
	}
	// at[k][s] is the index of source s in ems[k].
	at := make([]map[graph.NodeID]int, len(ems))
	for k, em := range ems {
		at[k] = make(map[graph.NodeID]int, len(em.Sources()))
		for i, s := range em.Sources() {
			at[k][s] = i
		}
	}
	var rebuilt int64
	var d *faults.EpochDelta
	for e := 0; e <= 8; e++ {
		if e > 0 {
			d = m.AdvanceEpochDelta(d)
			g := m.Degraded()
			for _, em := range ems {
				em.Apply(d, g)
			}
			rebuilt += ems[0].last.deletionFallbacks + ems[0].last.insertionFallbacks
		}
		for k, em := range ems[1:] {
			if em.last != ems[0].last {
				t.Fatalf("epoch %d: repair counts %+v in order %d, %+v in sampled order at one worker", e, em.last, k+1, ems[0].last)
			}
			for i, s := range ems[0].Sources() {
				j := at[k+1][s]
				if !slices.Equal(em.dist[j], ems[0].dist[i]) || !slices.Equal(em.levels[j], ems[0].levels[i]) {
					t.Fatalf("epoch %d source %d: maintainer %d differs from sampled order at one worker", e, s, k+1)
				}
			}
		}
	}
	checkExpansionExact(t, 8, ems[len(ems)-1], m.View())
	if rebuilt == 0 {
		t.Fatal("no source fell back to a rebuild; the sweep does not exercise the batches")
	}
}

// TestEquivalenceExpansionMaintainerBudgetPaths runs the quick epoch
// sweep's graph and sources under a faster drift, so that within six
// epochs the deletion budget, the insertion budget and a source going
// down and coming up each fire, and checks the whole state against
// fresh BFSs after every Apply.
func TestEquivalenceExpansionMaintainerBudgetPaths(t *testing.T) {
	g, fcfg, srcs := clusteredSweep(t)
	fcfg.Drift = 0.02
	m, err := faults.New(g, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	em, err := NewExpansionMaintainer(m.Degraded(), srcs, 2)
	if err != nil {
		t.Fatal(err)
	}
	isSource := make(map[graph.NodeID]bool, len(srcs))
	for _, s := range srcs {
		isSource[s] = true
	}
	count := func(vs []graph.NodeID) (k int) {
		for _, v := range vs {
			if isSource[v] {
				k++
			}
		}
		return k
	}
	var total repairCounts
	down, up := 0, 0
	var d *faults.EpochDelta
	for e := 1; e <= 6; e++ {
		d = m.AdvanceEpochDelta(d)
		down += count(d.NodesDown)
		up += count(d.NodesUp)
		em.Apply(d, m.Degraded())
		checkExpansionExact(t, e, em, m.View())
		total.add(em.last)
	}
	if down == 0 || up == 0 || total.repaired == 0 || total.deletionFallbacks == 0 || total.insertionFallbacks == 0 {
		t.Fatalf("want every path to fire: %d sources went down, %d came up, counts %+v", down, up, total)
	}
}

// TestEquivalenceExpansionMaintainerRedrawSweep runs without drift, so
// consecutive epochs are independent redraws and the deltas are huge —
// a stress test of the budget fallback as well as of the orphan
// cascade and re-level sweep. The state must stay exact at any delta
// size.
func TestEquivalenceExpansionMaintainerRedrawSweep(t *testing.T) {
	g := sweepGraph(t)
	srcs := expansionSources(t, g, 8)
	m, err := faults.New(g, faults.Config{Churn: 0.2, EdgeLoss: 0.1, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	em, err := NewExpansionMaintainer(m.Degraded(), srcs, 2)
	if err != nil {
		t.Fatal(err)
	}
	var d *faults.EpochDelta
	for e := 1; e <= 3; e++ {
		d = m.AdvanceEpochDelta(d)
		em.Apply(d, m.Degraded())
		checkExpansionExact(t, e, em, m.View())
	}
}

// TestEquivalenceExpansionMaintainerEdgeCases exercises targeted deltas
// including a source going down and coming back.
func TestEquivalenceExpansionMaintainerEdgeCases(t *testing.T) {
	g := sweepGraph(t)
	srcs := expansionSources(t, g, 6)
	mv := graph.NewMaskedView(g)
	em, err := NewExpansionMaintainer(graph.Materialize(mv), srcs, 2)
	if err != nil {
		t.Fatal(err)
	}
	var snap *graph.MaskSnapshot
	var delta faults.EpochDelta
	step := func(mutate func()) {
		t.Helper()
		snap = mv.Snapshot(snap)
		mutate()
		mv.DiffSnapshot(snap, &delta.MaskDelta)
		em.Apply(&delta, graph.Materialize(mv))
		checkExpansionExact(t, -1, em, mv)
	}

	var e0 graph.Edge
	g.VisitEdges(func(e graph.Edge) bool { e0 = e; return false })
	step(func() { mv.DropEdge(e0.U, e0.V) })
	step(func() { mv.RestoreEdge(e0.U, e0.V) })
	step(func() { mv.SetAlive(srcs[0], false) })
	step(func() { mv.SetAlive(srcs[0], true) })
	step(func() { mv.SetAlive(42, false) })
	step(func() { mv.SetAlive(42, true) })
	step(func() {
		mv.SetAlive(7, false)
		mv.SetAlive(9, false)
		mv.DropEdge(e0.U, e0.V)
		mv.SetAlive(7, true)
	})
}
