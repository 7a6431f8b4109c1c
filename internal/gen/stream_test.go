package gen

import (
	"bytes"
	"testing"

	"github.com/trustnet/trustnet/internal/graph"
)

// sameTopology fails unless a and b have identical node sets and edge sets.
func sameTopology(t *testing.T, a, b *graph.Graph, label string) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s: n/m mismatch: (%d,%d) vs (%d,%d)",
			label, a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	ae, be := a.Edges(), b.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("%s: edge %d differs: %v vs %v", label, i, ae[i], be[i])
		}
	}
}

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

// TestStreamCSRRoundTrip drives the whole bounded-memory path: stream a
// generator through the external-sort writer with a tiny buffer (forcing
// spills), read the TNG2 image back, and compare against the eager build.
func TestStreamCSRRoundTrip(t *testing.T) {
	eager, err := BarabasiAlbert(300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	es, err := StreamBA(300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st, err := StreamCSR(es, &buf, graph.CSRWriterConfig{TempDir: t.TempDir(), BufferArcs: 128})
	if err != nil {
		t.Fatal(err)
	}
	if st.Runs == 0 {
		t.Fatalf("expected spill runs with BufferArcs=128, got none")
	}
	got, err := graph.ReadTNG2(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Nodes != eager.NumNodes() || st.Edges != eager.NumEdges() {
		t.Fatalf("stats (%d,%d) disagree with eager (%d,%d)",
			st.Nodes, st.Edges, eager.NumNodes(), eager.NumEdges())
	}
	sameTopology(t, eager, got, "stream-csr")
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
