package gen

import (
	"bytes"
	"io"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/trustnet/trustnet/internal/graph"
)

// TestGeneratorsPinned pins the topology of every streamed model. The
// eager generators are Build over their streams, so the pins are what
// holds both still: a changed stream would re-key every cached artifact
// built on it. Each config is checked through the eager function and
// through two Builds of one stream (replays must be deterministic); the
// SBM and clustered labels must be each node's block or community.
func TestGeneratorsPinned(t *testing.T) {
	rmat := RMATConfig{Scale: 9, Edges: 4000, A: 0.57, B: 0.19, C: 0.19, Noise: 0.1, Seed: 7}
	sbm := SBMConfig{BlockSizes: []int{120, 80, 200}, PIn: 0.08, POut: 0.004, Seed: 11}
	dense := SBMConfig{BlockSizes: []int{30, 20}, PIn: 1, POut: 0.5, Seed: 3}
	clustered := ClusteredPAConfig{Communities: 4, CommunitySize: 120, Attach: 3, Bridges: 2, Seed: 21}
	// The epoch sweep's graph (internal/experiments, full size).
	epochs := ClusteredPAConfig{Communities: 50, CommunitySize: 200, Attach: 8, Bridges: 4, Seed: 97}
	communities := func(cfg ClusteredPAConfig) []int {
		sizes := make([]int, cfg.Communities)
		for i := range sizes {
			sizes[i] = cfg.CommunitySize
		}
		return sizes
	}
	for _, tc := range []struct {
		name   string
		want   string
		eager  func() (*graph.Graph, []int, error)
		stream func() (EdgeStream, error)
		blocks []int // block sizes the labels must follow; nil when unlabelled
	}{
		{"ba", "241b2f9caa313dec",
			func() (*graph.Graph, []int, error) { g, err := BarabasiAlbert(500, 4, 99); return g, nil, err },
			func() (EdgeStream, error) { return StreamBA(500, 4, 99) }, nil},
		{"rmat", "9cb25f3faeb34949",
			func() (*graph.Graph, []int, error) { g, err := RMAT(rmat); return g, nil, err },
			func() (EdgeStream, error) { return StreamRMAT(rmat) }, nil},
		{"sbm", "fe747f9afe7a0e58",
			func() (*graph.Graph, []int, error) { return SBM(sbm) },
			func() (EdgeStream, error) { return StreamSBM(sbm) }, sbm.BlockSizes},
		{"sbm-dense", "6bf9c33f3cde19f2",
			func() (*graph.Graph, []int, error) { return SBM(dense) },
			func() (EdgeStream, error) { return StreamSBM(dense) }, dense.BlockSizes},
		{"clustered", "dd02463fdac7b0ec",
			func() (*graph.Graph, []int, error) { return ClusteredPA(clustered) },
			func() (EdgeStream, error) { return StreamClusteredPA(clustered) }, communities(clustered)},
		{"epochs", "c5310baadf64cf38",
			func() (*graph.Graph, []int, error) { return ClusteredPA(epochs) },
			func() (EdgeStream, error) { return StreamClusteredPA(epochs) }, communities(epochs)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, labels, err := tc.eager()
			if err != nil {
				t.Fatal(err)
			}
			if got := graph.Fingerprint(g); got != tc.want {
				t.Errorf("eager fingerprint %s, pinned %s", got, tc.want)
			}
			es, err := tc.stream()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				b, err := Build(es)
				if err != nil {
					t.Fatal(err)
				}
				if got := graph.Fingerprint(b); got != tc.want {
					t.Errorf("Build %d fingerprint %s, pinned %s", i+1, got, tc.want)
				}
			}
			if tc.blocks == nil {
				return
			}
			if len(labels) != g.NumNodes() {
				t.Fatalf("%d labels for %d nodes", len(labels), g.NumNodes())
			}
			v := 0
			for block, size := range tc.blocks {
				for end := v + size; v < end; v++ {
					if labels[v] != block {
						t.Fatalf("node %d labelled %d, want %d", v, labels[v], block)
					}
				}
			}
		})
	}
}

// TestStreamCSRRoundTrip drives the whole bounded-memory path: stream
// each model through the external-sort writer, in memory and with a
// tiny buffer that forces spills, and require the bytes WriteCSR writes
// for the eager build.
func TestStreamCSRRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream func() (EdgeStream, error)
	}{
		{"ba", func() (EdgeStream, error) { return StreamBA(300, 3, 5) }},
		{"rmat", func() (EdgeStream, error) {
			return StreamRMAT(RMATConfig{Scale: 9, Edges: 3000, A: 0.57, B: 0.19, C: 0.19, Noise: 0.1, Seed: 2})
		}},
		{"clustered", func() (EdgeStream, error) {
			return StreamClusteredPA(ClusteredPAConfig{Communities: 5, CommunitySize: 60, Attach: 3, Bridges: 2, Seed: 4})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			es, err := tc.stream()
			if err != nil {
				t.Fatal(err)
			}
			eager, err := Build(es)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := graph.WriteCSR(&want, eager); err != nil {
				t.Fatal(err)
			}
			for _, bufArcs := range []int{0, 128} {
				var got bytes.Buffer
				st, err := StreamCSR(es, &got, graph.CSRWriterConfig{TempDir: t.TempDir(), BufferArcs: bufArcs})
				if err != nil {
					t.Fatal(err)
				}
				if spilled := st.Runs > 0; spilled != (bufArcs != 0) {
					t.Errorf("buffer %d: %d spill runs", bufArcs, st.Runs)
				}
				if st.Nodes != eager.NumNodes() || st.Edges != eager.NumEdges() {
					t.Errorf("buffer %d: stats (%d,%d) disagree with eager (%d,%d)",
						bufArcs, st.Nodes, st.Edges, eager.NumNodes(), eager.NumEdges())
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("buffer %d: streamed image differs from WriteCSR of the eager graph", bufArcs)
				}
			}
		})
	}
}

func TestStreamConstructorValidation(t *testing.T) {
	if _, err := StreamBA(3, 3, 1); err == nil {
		t.Error("StreamBA accepted n <= attach")
	}
	if _, err := StreamRMAT(RMATConfig{Scale: 0, Edges: 1}); err == nil {
		t.Error("StreamRMAT accepted scale 0")
	}
	if _, err := StreamSBM(SBMConfig{}); err == nil {
		t.Error("StreamSBM accepted empty blocks")
	}
	if _, err := StreamClusteredPA(ClusteredPAConfig{Communities: 1, Bridges: 1}); err == nil {
		t.Error("StreamClusteredPA accepted one community")
	}
}

// TestStreamToFileAllocation bounds the bytes StreamToFile allocates
// per arc on perfbench `large`'s BA graph (4·10⁴ nodes, attach 8): the
// stream's endpoint array and the writer's edge chunks take 4 bytes per
// arc each, its two row arrays 4 each, and its n-entry arrays about 1
// more. A writer that radix-sorted packed arcs through a doubling
// buffer allocated about 40.
func TestStreamToFileAllocation(t *testing.T) {
	const maxBytesPerArc = 24
	es, err := StreamBA(40000, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.tng2")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := StreamToFile(es, path)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perArc := float64(after.TotalAlloc-before.TotalAlloc) / float64(2*st.Edges)
	t.Logf("%.1f bytes per arc over %d arcs", perArc, 2*st.Edges)
	if perArc > maxBytesPerArc {
		t.Errorf("StreamToFile allocated %.1f bytes per arc, want at most %d", perArc, maxBytesPerArc)
	}
}

// BenchmarkStreamToFile times the ingest of the benchmark's `large`
// workload: streaming one of its two graphs to a TNG2 file, in memory
// (no spill runs). It sizes an ingest change without the daemon.
func BenchmarkStreamToFile(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stream func() (EdgeStream, error)
	}{
		{"ba", func() (EdgeStream, error) { return StreamBA(40000, 8, 1) }},
		{"clustered", func() (EdgeStream, error) {
			return StreamClusteredPA(ClusteredPAConfig{Communities: 200, CommunitySize: 200, Attach: 8, Bridges: 4, Seed: 1})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			es, err := bc.stream()
			if err != nil {
				b.Fatal(err)
			}
			path := filepath.Join(b.TempDir(), "g.tng2")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := StreamToFile(es, path)
				if err != nil {
					b.Fatal(err)
				}
				if st.Runs != 0 {
					b.Fatalf("%d spill runs, want an in-memory build", st.Runs)
				}
			}
		})
	}
}

// ingestSink keeps BenchmarkIngest's graphs alive past the call.
var ingestSink *graph.Graph

// BenchmarkIngest times the two CSR constructions alone, from edges
// collected beforehand: CSRWriter to io.Discard, in memory, and
// Builder.Build. The graphs are perfbench `large`'s two and an R-MAT
// graph at scale 16 with 2^20 edges, whose hub rows hold thousands of
// repeated arcs.
func BenchmarkIngest(b *testing.B) {
	for _, bc := range []struct {
		name   string
		stream func() (EdgeStream, error)
	}{
		{"rmat", func() (EdgeStream, error) {
			return StreamRMAT(RMATConfig{Scale: 16, Edges: 1 << 20, A: 0.57, B: 0.19, C: 0.19, Seed: 1})
		}},
		{"ba", func() (EdgeStream, error) { return StreamBA(40000, 8, 1) }},
		{"clustered", func() (EdgeStream, error) {
			return StreamClusteredPA(ClusteredPAConfig{Communities: 200, CommunitySize: 200, Attach: 8, Bridges: 4, Seed: 1})
		}},
	} {
		es, err := bc.stream()
		if err != nil {
			b.Fatal(err)
		}
		var edges []graph.Edge
		if err := es.Edges(func(u, v graph.NodeID) error {
			edges = append(edges, graph.Edge{U: u, V: v})
			return nil
		}); err != nil {
			b.Fatal(err)
		}
		n := es.NumNodes()
		b.Run(bc.name+"/writer", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w, err := graph.NewCSRWriter(n, graph.CSRWriterConfig{TempDir: b.TempDir()})
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range edges {
					if err := w.AddEdge(e.U, e.V); err != nil {
						b.Fatal(err)
					}
				}
				st, err := w.Finish(io.Discard)
				if err != nil {
					b.Fatal(err)
				}
				if st.Runs != 0 {
					b.Fatalf("%d spill runs, want an in-memory build", st.Runs)
				}
				w.Close()
			}
		})
		b.Run(bc.name+"/builder", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bl := graph.NewBuilder(n)
				for _, e := range edges {
					bl.AddEdgeSafe(e.U, e.V)
				}
				ingestSink = bl.Build()
			}
		})
	}
}
