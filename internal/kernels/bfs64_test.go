package kernels_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/kernels"
)

// disconnectedGraph builds two components plus an isolated node.
func disconnectedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(12)
	for _, e := range [][2]graph.NodeID{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, // 4-cycle
		{5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 5}, {5, 7}, // chorded 5-cycle
		// 4 and 10, 11 isolated
	} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestEquivalenceBFSBatchVsScalar: the batch kernel's level sizes must
// equal the scalar BFS's, per source, on random, disconnected and star
// graphs, at several batch widths including a full 64-lane batch.
func TestEquivalenceBFSBatchVsScalar(t *testing.T) {
	ba, err := gen.BarabasiAlbert(500, 3, 21)
	if err != nil {
		t.Fatal(err)
	}
	star, err := gen.Star(80)
	if err != nil {
		t.Fatal(err)
	}
	path, err := gen.Path(70) // deep levels: many popcount rounds per lane
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{
		"ba": ba, "star": star, "path": path, "disconnected": disconnectedGraph(t),
	}
	for name, g := range graphs {
		for _, width := range []int{1, 3, 64} {
			batch := kernels.NewBFSBatch(g)
			n := g.NumNodes()
			for start := 0; start < n; start += width {
				end := start + width
				if end > n {
					end = n
				}
				sources := make([]graph.NodeID, 0, end-start)
				for v := start; v < end; v++ {
					sources = append(sources, graph.NodeID(v))
				}
				levels, err := batch.Run(sources)
				if err != nil {
					t.Fatalf("%s width=%d: %v", name, width, err)
				}
				for j, s := range sources {
					ref, err := graph.BFS(g, s)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(levels[j], ref.LevelSizes) {
						t.Fatalf("%s width=%d source=%d: batch %v scalar %v",
							name, width, s, levels[j], ref.LevelSizes)
					}
				}
			}
		}
	}
}

// bfsCase is one batch of the hand-over shapes: its graph, its sources
// and whether it must hand over.
type bfsCase struct {
	name    string
	g       *graph.Graph
	sources []graph.NodeID
	alone   bool
}

// handoverCases are graphs whose BFSs run past level 32, the first
// frontier level at which a batch may finish its live lanes one at a
// time: lanes that end at levels 31, 32 and 33, duplicate sources, an
// isolated source, and a disconnected batch whose shallow lanes never
// hand over.
func handoverCases(t *testing.T) []bfsCase {
	t.Helper()
	path, err := gen.Path(63)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := gen.Cycle(129)
	if err != nil {
		t.Fatal(err)
	}
	clustered, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{Communities: 30, CommunitySize: 20, Attach: 2, Bridges: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// A deep path (0..79), a 4-cycle (80..83), a star (84..90) and an
	// isolated node (91).
	var edges []graph.Edge
	for v := graph.NodeID(0); v < 79; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	edges = append(edges, graph.Edge{U: 80, V: 81}, graph.Edge{U: 81, V: 82}, graph.Edge{U: 82, V: 83}, graph.Edge{U: 83, V: 80})
	for v := graph.NodeID(85); v <= 90; v++ {
		edges = append(edges, graph.Edge{U: 84, V: v})
	}
	disconnected, err := graph.FromEdges(92, edges)
	if err != nil {
		t.Fatal(err)
	}
	clusteredSources, err := graph.SampleNodes(clustered, kernels.BFSBatchWidth, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	return []bfsCase{
		// On the 63-node path, source 31 ends at level 31, 30 and 32 at
		// 32, 29 and 33 at 33, and the ends at 62.
		{"path", path, []graph.NodeID{31, 30, 32, 29, 33, 0, 62, 0}, true},
		{"path/shallow", path, []graph.NodeID{31, 31}, false},
		{"cycle129", cycle, []graph.NodeID{0, 1, 5, 17, 40, 64, 100, 128, 5}, true},
		{"clustered", clustered, clusteredSources, true},
		{"disconnected/deep", disconnected, []graph.NodeID{0, 40, 91, 80, 84, 86, 0, 79}, true},
		{"disconnected/shallow", disconnected, []graph.NodeID{91, 80, 84, 86, 82, 91}, false},
	}
}

// TestEquivalenceBFSBatchHandover covers the hand-over to lone lanes on
// the handoverCases. Every lane must equal the scalar BFS, and each deep
// batch must really hand over. Every batch runs twice, and the shallow
// batches run on the BFSBatch the deep ones used, so each run also
// proves that the lone scans left the scratch clean.
func TestEquivalenceBFSBatchHandover(t *testing.T) {
	cases := handoverCases(t)
	batches := map[*graph.Graph]*kernels.BFSBatch{}
	for _, tc := range cases {
		batch := batches[tc.g]
		if batch == nil {
			batch = kernels.NewBFSBatch(tc.g)
			batches[tc.g] = batch
		}
		checkBFSBatch(t, tc.name, batch, tc.g, tc.sources, tc.alone)
		checkBFSBatch(t, tc.name+" again", batch, tc.g, tc.sources, tc.alone)
	}
	// A Run that fails validation hands nothing over.
	path := cases[0].g
	batch := batches[path]
	checkBFSBatch(t, "path/one lane", batch, path, []graph.NodeID{0}, true)
	if _, err := batch.Run([]graph.NodeID{63}); err == nil || batch.LanesAlone() {
		t.Fatalf("out-of-range source: err %v, LanesAlone() %v", err, batch.LanesAlone())
	}
}

// TestEquivalenceBFSBatchDistances checks RunDistances against
// graph.BFSWorker, the distances and the levels of every lane, on the
// handoverCases, in batches that hand over and batches that do not,
// with int16 and with int32 fields. The fields start dirty, so they
// must be overwritten whole, and a plain Run of the same sources
// follows on the same BFSBatch, so the distance run must leave the
// scratch clean.
func TestEquivalenceBFSBatchDistances(t *testing.T) {
	for _, tc := range handoverCases(t) {
		checkDistances[int16](t, tc)
		checkDistances[int32](t, tc)
	}
}

// checkDistances runs one handover case through RunDistances into
// fields of D and compares every lane with a scalar BFS.
func checkDistances[D kernels.Distance](t *testing.T, tc bfsCase) {
	t.Helper()
	name := fmt.Sprintf("%s/%T", tc.name, D(0))
	n := tc.g.NumNodes()
	batch := kernels.NewBFSBatch(tc.g)
	dist := make([][]D, len(tc.sources))
	for j := range dist {
		dist[j] = make([]D, n)
		for v := range dist[j] {
			dist[j][v] = D(v + 7)
		}
	}
	levels, err := kernels.RunDistances(batch, tc.sources, dist)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if batch.LanesAlone() != tc.alone {
		t.Fatalf("%s: LanesAlone() = %v, want %v", name, batch.LanesAlone(), tc.alone)
	}
	w := graph.NewBFSWorker(tc.g)
	for j, s := range tc.sources {
		ref, err := w.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(levels[j], ref.LevelSizes) {
			t.Fatalf("%s lane %d (source %d): levels %v, scalar %v", name, j, s, levels[j], ref.LevelSizes)
		}
		for v, want := range ref.Dist {
			if got := int32(dist[j][v]); got != want {
				t.Fatalf("%s lane %d (source %d): dist[%d] = %d, scalar %d", name, j, s, v, got, want)
			}
		}
	}
	checkBFSBatch(t, name+" then Run", batch, tc.g, tc.sources, tc.alone)
}

// TestBFSBatchDistancesErrors covers the distance fields' contract and
// Rebind: a mismatched field count or length, or int16 fields on a
// graph of more than 32,768 nodes, is refused before any scratch is
// touched, and a batch rebound to a graph of another size runs on it.
func TestBFSBatchDistancesErrors(t *testing.T) {
	g, err := gen.Path(10)
	if err != nil {
		t.Fatal(err)
	}
	batch := kernels.NewBFSBatch(g)
	if _, err := kernels.RunDistances(batch, []graph.NodeID{0, 1}, [][]int32{make([]int32, 10)}); err == nil {
		t.Error("two sources, one field: want error")
	}
	if _, err := kernels.RunDistances(batch, []graph.NodeID{0}, [][]int16{make([]int16, 9)}); err == nil {
		t.Error("short field: want error")
	}
	checkBFSBatch(t, "after refusals", batch, g, []graph.NodeID{0, 9}, false)
	big, err := gen.Path(70)
	if err != nil {
		t.Fatal(err)
	}
	batch.Rebind(big)
	checkBFSBatch(t, "rebound to a 70-node path", batch, big, []graph.NodeID{0, 69}, true)
	var zero kernels.BFSBatch
	zero.Rebind(g)
	checkBFSBatch(t, "zero batch, rebound", &zero, g, []graph.NodeID{3}, false)
}

// TestEquivalenceBFSBatchDistances16BitBoundary runs a path of 32,768 nodes, whose
// far end sits at distance 32,767, the largest int16, into int16
// fields, and a path of 32,769 nodes, whose far end would wrap, into
// int16 fields (refused) and int32 fields.
func TestEquivalenceBFSBatchDistances16BitBoundary(t *testing.T) {
	for _, n := range []int{32768, 32769} {
		g, err := gen.Path(n)
		if err != nil {
			t.Fatal(err)
		}
		batch := kernels.NewBFSBatch(g)
		ends := []graph.NodeID{0, graph.NodeID(n - 1)}
		d16 := [][]int16{make([]int16, n), make([]int16, n)}
		_, err = kernels.RunDistances(batch, ends, d16)
		if fits := n <= 32768; (err == nil) != fits || kernels.Fits[int16](n) != fits {
			t.Fatalf("%d-node path, int16 fields: err %v, Fits %v", n, err, kernels.Fits[int16](n))
		}
		if err == nil && (d16[0][n-1] != int16(n-1) || d16[1][0] != int16(n-1)) {
			t.Fatalf("%d-node path: far ends at %d and %d, want %d", n, d16[0][n-1], d16[1][0], n-1)
		}
		d32 := [][]int32{make([]int32, n), make([]int32, n)}
		if _, err := kernels.RunDistances(batch, ends, d32); err != nil {
			t.Fatalf("%d-node path, int32 fields: %v", n, err)
		}
		if d32[0][n-1] != int32(n-1) || d32[1][0] != int32(n-1) {
			t.Fatalf("%d-node path: far ends at %d and %d in int32, want %d", n, d32[0][n-1], d32[1][0], n-1)
		}
		checkBFSBatch(t, fmt.Sprintf("%d-node path after the distance runs", n), batch, g, ends, true)
	}
}

// checkBFSBatch runs one batch and compares every lane with a scalar
// BFS, and whether the batch handed over with alone.
func checkBFSBatch(t *testing.T, name string, batch *kernels.BFSBatch, g *graph.Graph, sources []graph.NodeID, alone bool) {
	t.Helper()
	levels, err := batch.Run(sources)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	w := graph.NewBFSWorker(g)
	for j, s := range sources {
		ref, err := w.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(levels[j], ref.LevelSizes) {
			t.Fatalf("%s lane %d (source %d): batch %v scalar %v", name, j, s, levels[j], ref.LevelSizes)
		}
	}
	if batch.LanesAlone() != alone {
		t.Fatalf("%s: LanesAlone() = %v, want %v", name, batch.LanesAlone(), alone)
	}
}

// TestBFSBatchReuse runs the same batch runner back to back and with
// duplicate sources: scratch must come back clean between runs, and a
// result must stay valid after further runs.
func TestBFSBatchReuse(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	batch := kernels.NewBFSBatch(g)
	first, err := batch.Run([]graph.NodeID{0, 0, 5}) // duplicates share a frontier
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first[0], first[1]) {
		t.Fatalf("duplicate sources disagree: %v vs %v", first[0], first[1])
	}
	keep := append([]int64(nil), first[2]...)
	second, err := batch.Run([]graph.NodeID{5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second[0], keep) {
		t.Fatalf("rerun of source 5 diverged: %v vs %v", second[0], keep)
	}
	if !reflect.DeepEqual(first[2], keep) {
		t.Fatal("result from first run was clobbered by the second run")
	}
}

// TestBFSBatchErrors covers the lane-count and validity contract.
func TestBFSBatchErrors(t *testing.T) {
	g, err := gen.Star(4)
	if err != nil {
		t.Fatal(err)
	}
	batch := kernels.NewBFSBatch(g)
	if _, err := batch.Run(nil); err == nil {
		t.Error("empty batch: want error")
	}
	if _, err := batch.Run(make([]graph.NodeID, 65)); err == nil {
		t.Error("65 lanes: want error")
	}
	if _, err := batch.Run([]graph.NodeID{42}); err == nil {
		t.Error("out-of-range source: want error")
	}
}
