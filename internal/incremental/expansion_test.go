package incremental

import (
	"context"
	"fmt"
	"math"
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

// field returns source i's maintained distance field, widened to int32.
func field(em *ExpansionMaintainer, i int) []int32 {
	switch f := em.fields.(type) {
	case fieldsOf[int16]:
		wide := make([]int32, len(f[i]))
		for v, d := range f[i] {
			wide[v] = int32(d)
		}
		return wide
	case fieldsOf[int32]:
		return f[i]
	}
	panic(fmt.Sprintf("distance fields of type %T", em.fields))
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
		dist := field(em, i)
		for v, want := range res.Dist {
			if got := dist[v]; got != want {
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
// every epoch. Its two runs of sources repair on both worker slots.
func TestEquivalenceExpansionMaintainerDriftSweep(t *testing.T) {
	g := sweepGraph(t)
	srcs := expansionSources(t, g, 2*repairRunLen)
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
			if !slices.Equal(field(ems[0], i), field(ems[1], i)) {
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
	if got := len(ems[1].slots); got != 3 {
		t.Fatalf("workers=3 maintainer has %d slots", got)
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
				if !slices.Equal(field(em, j), field(ems[0], i)) || !slices.Equal(em.levels[j], ems[0].levels[i]) {
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
// epochs the deletion budget, the insertion budget, a repair under a
// halved budget (and one that finishes under it) and a source going
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
	if down == 0 || up == 0 || total.repaired == 0 || total.deletionFallbacks == 0 || total.insertionFallbacks == 0 ||
		total.halved == 0 || total.restored == 0 {
		t.Fatalf("want every path to fire: %d sources went down, %d came up, counts %+v", down, up, total)
	}
}

// TestEquivalenceExpansionMaintainerRedrawSweep runs without drift, so
// consecutive epochs are independent redraws and the deltas are huge —
// a stress test of the budget fallback as well as of the orphan
// cascade and re-level sweep, on both worker slots. The state must stay
// exact at any delta size.
func TestEquivalenceExpansionMaintainerRedrawSweep(t *testing.T) {
	g := sweepGraph(t)
	srcs := expansionSources(t, g, 2*repairRunLen)
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
// including a source going down and coming back, on both worker slots.
func TestEquivalenceExpansionMaintainerEdgeCases(t *testing.T) {
	g := sweepGraph(t)
	srcs := expansionSources(t, g, 2*repairRunLen)
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

// TestEquivalenceExpansionMaintainerCascadeCases drops edges from small
// hand-built graphs and checks every node, as a source, against a fresh
// BFS after one Apply. The cases are the orders an orphan cascade must
// decide in level order: a node whose two parents die in one delta, one
// through its own lost edge and one through a cascade from two levels
// up (examined before that cascade reaches it, it would keep a dead
// parent); a node whose parent edge is lost but which keeps another
// parent; a lost edge between two nodes of one level; and seeds on
// several levels at once. Each graph carries isolated padding nodes,
// which no BFS reaches, so that the budget, (n + 2m)/8, covers every
// repair and none falls back.
func TestEquivalenceExpansionMaintainerCascadeCases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		edges [][2]graph.NodeID
		drop  [][2]graph.NodeID
	}{{
		// From 0: 5 sits at level 3 under 2 and 4. Losing 0–1 orphans 1
		// at level 1 and then 2 at level 2; losing 4–5 takes 5's other
		// parent. 1, 2 and 5 re-level through 6–7–8.
		name:  "both parents die",
		n:     9,
		edges: [][2]graph.NodeID{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {2, 5}, {4, 5}, {0, 6}, {6, 7}, {7, 8}, {8, 1}},
		drop:  [][2]graph.NodeID{{0, 1}, {4, 5}},
	}, {
		name:  "another parent survives",
		n:     5,
		edges: [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}},
		drop:  [][2]graph.NodeID{{1, 3}},
	}, {
		name:  "same-level loss",
		n:     4,
		edges: [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}},
		drop:  [][2]graph.NodeID{{1, 2}},
	}, {
		name: "seeds on several levels",
		n:    9,
		edges: [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 5}, {4, 6}, {5, 7}, {6, 7},
			{1, 4}, {3, 6}, {7, 8}, {2, 8}},
		drop: [][2]graph.NodeID{{0, 1}, {3, 5}, {6, 7}, {2, 8}},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			const padding = 1000
			b := graph.NewBuilder(tc.n + padding)
			for _, e := range tc.edges {
				if err := b.AddEdge(e[0], e[1]); err != nil {
					t.Fatal(err)
				}
			}
			mv := graph.NewMaskedView(b.Build())
			srcs := make([]graph.NodeID, tc.n)
			for v := range srcs {
				srcs[v] = graph.NodeID(v)
			}
			em, err := NewExpansionMaintainer(graph.Materialize(mv), srcs, 1)
			if err != nil {
				t.Fatal(err)
			}
			snap := mv.Snapshot(nil)
			for _, e := range tc.drop {
				mv.DropEdge(e[0], e[1])
			}
			var delta faults.EpochDelta
			mv.DiffSnapshot(snap, &delta.MaskDelta)
			em.Apply(&delta, graph.Materialize(mv))
			checkExpansionExact(t, 1, em, mv)
			if c := em.last; c.orphaned == 0 || c.deletionFallbacks+c.insertionFallbacks > 0 {
				t.Fatalf("want orphans and no fallback: %+v", c)
			}
		})
	}
}

// TestEquivalenceExpansionMaintainerDeepPath drifts a 40,000-node path
// under sparse edge loss, so that BFS depths pass 32,767, the largest
// int16: the maintainer must hold int32 fields, and its repairs at
// those depths must stay exact at every epoch.
func TestEquivalenceExpansionMaintainerDeepPath(t *testing.T) {
	g, err := gen.Path(40000)
	if err != nil {
		t.Fatal(err)
	}
	m, err := faults.New(g, faults.Config{EdgeLoss: 5e-5, Drift: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	em, err := NewExpansionMaintainer(m.Degraded(), []graph.NodeID{0, 123, 20000, 39999}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := em.fields.(fieldsOf[int32]); !ok {
		t.Fatalf("a 40,000-node graph got %T distance fields, want int32", em.fields)
	}
	checkExpansionExact(t, 0, em, m.View())
	deepRepairs := 0
	var d *faults.EpochDelta
	for e := 1; e <= 8; e++ {
		d = m.AdvanceEpochDelta(d)
		em.Apply(d, m.Degraded())
		checkExpansionExact(t, e, em, m.View())
		res, err := em.Measure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxEccentricity > math.MaxInt16 && em.last.repaired > 0 {
			deepRepairs++
		}
	}
	if deepRepairs == 0 {
		t.Fatal("no epoch repaired a source while a BFS ran deeper than 32,767")
	}
}

// TestEquivalenceExpansionMaintainer16BitBoundary runs a 32,768-node
// path, the largest graph with int16 fields, whose ends sit at distance
// 32,767 from each other, the largest int16, and cuts and restores the
// edges at both ends, where the repairs orphan, re-level and relax
// nodes at that distance, and one in the middle, which falls back to a
// rebuild. The state must stay exact after every Apply.
func TestEquivalenceExpansionMaintainer16BitBoundary(t *testing.T) {
	const n = 32768
	g, err := gen.Path(n)
	if err != nil {
		t.Fatal(err)
	}
	mv := graph.NewMaskedView(g)
	srcs := []graph.NodeID{0, n / 2, n - 1}
	em, err := NewExpansionMaintainer(graph.Materialize(mv), srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := em.fields.(fieldsOf[int16]); !ok {
		t.Fatalf("a %d-node graph got %T distance fields, want int16", n, em.fields)
	}
	if got := field(em, 0)[n-1]; got != math.MaxInt16 {
		t.Fatalf("far end of the path at distance %d, want %d", got, math.MaxInt16)
	}
	checkExpansionExact(t, 0, em, mv)
	var snap *graph.MaskSnapshot
	var delta faults.EpochDelta
	var total repairCounts
	for k, cut := range [][2]graph.NodeID{{n - 2, n - 1}, {0, 1}, {n / 4, n/4 + 1}} {
		for _, drop := range []bool{true, false} {
			snap = mv.Snapshot(snap)
			if drop {
				mv.DropEdge(cut[0], cut[1])
			} else {
				mv.RestoreEdge(cut[0], cut[1])
			}
			mv.DiffSnapshot(snap, &delta.MaskDelta)
			em.Apply(&delta, graph.Materialize(mv))
			checkExpansionExact(t, k, em, mv)
			total.add(em.last)
		}
	}
	if total.orphaned == 0 || total.deletionFallbacks == 0 {
		t.Fatalf("want orphans and a rebuild: %+v", total)
	}
}

// TestMeasureResultKeepsLevelsAcrossApply takes each epoch's Result and
// a deep copy of its levels, applies the next epoch's delta, and
// requires the Result's levels unchanged, while the maintained levels
// of some source did change.
func TestMeasureResultKeepsLevelsAcrossApply(t *testing.T) {
	g, fcfg, srcs := clusteredSweep(t)
	m, err := faults.New(g, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	em, err := NewExpansionMaintainer(m.Degraded(), srcs, 2)
	if err != nil {
		t.Fatal(err)
	}
	var d *faults.EpochDelta
	for e := 0; e < 4; e++ {
		res, err := em.Measure(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		before := make([][]int64, len(srcs))
		for i, ls := range res.Checkpoint().Levels {
			before[i] = slices.Clone(ls)
		}
		d = m.AdvanceEpochDelta(d)
		em.Apply(d, m.Degraded())
		moved := 0
		for i, ls := range res.Checkpoint().Levels {
			if !slices.Equal(ls, before[i]) {
				t.Fatalf("epoch %d source %d: Result levels %v became %v after the next Apply", e, srcs[i], before[i], ls)
			}
			if !slices.Equal(em.Levels(i), before[i]) {
				moved++
			}
		}
		if moved == 0 {
			t.Fatalf("epoch %d: the next Apply changed no source's levels", e)
		}
	}
}

// TestMeasureAllocatesLessThanOncePerSource bounds Measure's
// allocations on the quick sweep's 128 sources below one per source:
// the fold reads the maintained level slices, it copies none of them.
func TestMeasureAllocatesLessThanOncePerSource(t *testing.T) {
	g, fcfg, srcs := clusteredSweep(t)
	m, err := faults.New(g, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	em, err := NewExpansionMaintainer(m.Degraded(), srcs, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := em.Measure(ctx); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per Measure of %d sources", allocs, len(srcs))
	if allocs >= float64(len(srcs)) {
		t.Fatalf("Measure made %v allocations for %d sources, want fewer than one per source", allocs, len(srcs))
	}
}
