package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// binaryBytes serializes g to a TNG1 image.
func binaryBytes(t *testing.T, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scanAll runs ScanBinaryEdges over data and collects the yielded edges.
func scanAll(data []byte) (int, int64, []Edge, error) {
	var edges []Edge
	n, m, err := ScanBinaryEdges(bytes.NewReader(data), func(u, v NodeID) error {
		edges = append(edges, Edge{U: u, V: v})
		return nil
	})
	return n, m, edges, err
}

// scanMismatch scans a TNG1 image and describes how it differs from g —
// a scan error, the node or edge count, or the canonical edge sequence
// — or returns "" when the scan reproduces g exactly.
func scanMismatch(g *Graph, data []byte) string {
	n, m, edges, err := scanAll(data)
	if err != nil {
		return err.Error()
	}
	if n != g.NumNodes() || m != g.NumEdges() {
		return fmt.Sprintf("scan n/m = (%d,%d), want (%d,%d)", n, m, g.NumNodes(), g.NumEdges())
	}
	want := g.Edges()
	if len(edges) != len(want) {
		return fmt.Sprintf("scanned %d edges, want %d", len(edges), len(want))
	}
	for i := range want {
		if edges[i] != want[i] {
			return fmt.Sprintf("edge %d = %v, want %v", i, edges[i], want[i])
		}
	}
	return ""
}

func TestBinaryRoundTrip(t *testing.T) {
	g := cliqueGraph(t, 8)
	if msg := scanMismatch(g, binaryBytes(t, g)); msg != "" {
		t.Fatal(msg)
	}
}

func TestBinaryEmptyAndIsolated(t *testing.T) {
	// Graph with isolated nodes only.
	g := NewBuilder(7).Build()
	if msg := scanMismatch(g, binaryBytes(t, g)); msg != "" {
		t.Fatal(msg)
	}
}

func TestBinaryCompactness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder(2000)
	for i := 0; i < 12000; i++ {
		b.AddEdgeSafe(NodeID(rng.Intn(2000)), NodeID(rng.Intn(2000)))
	}
	g := b.Build()
	var bin, txt bytes.Buffer
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteEdgeList(&txt, g); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len()/2 {
		t.Errorf("binary %d bytes vs text %d: expected at least 2x compaction", bin.Len(), txt.Len())
	}
}

func TestBinaryCorruption(t *testing.T) {
	g := pathGraph(t, 10)
	data := binaryBytes(t, g)
	if msg := scanMismatch(g, data); msg != "" {
		t.Fatalf("intact image: %s", msg)
	}
	rejects := func(label string, bad []byte) {
		t.Helper()
		if _, _, _, err := scanAll(bad); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: %v, want ErrBadFormat", label, err)
		}
	}

	rejects("wrong magic", append([]byte("XXXX"), data[4:]...))
	rejects("truncated", data[:len(data)-2])
	rejects("empty", nil)
	// Bit flip in the edge payload: caught by the CRC footer even when the
	// damaged varints still decode to plausible edges.
	for i := 6; i < len(data)-4; i++ {
		bad := bytes.Clone(data)
		bad[i] ^= 0x04
		rejects(fmt.Sprintf("bit flip at %d", i), bad)
	}
	// Bit flip in the footer itself.
	bad := bytes.Clone(data)
	bad[len(data)-3] ^= 0x80
	rejects("footer flip", bad)
}

// TestScanBinaryEdges drives the streaming scanner directly: it must
// yield the canonical edge sequence without materializing a graph, and
// propagate yield errors verbatim.
func TestScanBinaryEdges(t *testing.T) {
	g := cliqueGraph(t, 6)
	data := binaryBytes(t, g)
	if msg := scanMismatch(g, data); msg != "" {
		t.Fatal(msg)
	}

	// Yield errors abort the scan and surface unchanged.
	sentinel := errors.New("stop")
	if _, _, err := ScanBinaryEdges(bytes.NewReader(data), func(u, v NodeID) error {
		return sentinel
	}); !errors.Is(err, sentinel) {
		t.Errorf("yield error: %v, want sentinel", err)
	}
}

func TestBinaryRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			b.AddEdgeSafe(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)))
		}
		g := b.Build()
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			return false
		}
		return scanMismatch(g, buf.Bytes()) == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// FuzzScanBinaryEdges: arbitrary bytes must never panic; a successful
// scan must have yielded exactly m canonical pairs inside [0, n), in
// strictly ascending order.
func FuzzScanBinaryEdges(f *testing.F) {
	g, _ := FromEdges(4, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	var buf bytes.Buffer
	_ = WriteBinary(&buf, g)
	f.Add(buf.Bytes())
	f.Add([]byte("TNG1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, m, edges, err := scanAll(data)
		if err != nil {
			return
		}
		if int64(len(edges)) != m {
			t.Fatalf("yielded %d edges, declared %d", len(edges), m)
		}
		for i, e := range edges {
			if e.U < 0 || e.U >= e.V || int(e.V) >= n {
				t.Fatalf("edge %d = %v: not canonical inside [0, %d)", i, e, n)
			}
			if i > 0 {
				if p := edges[i-1]; p.U > e.U || p.U == e.U && p.V >= e.V {
					t.Fatalf("edge %d = %v after %v: not strictly ascending", i, e, p)
				}
			}
		}
	})
}
