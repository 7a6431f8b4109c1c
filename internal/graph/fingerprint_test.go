package graph

import (
	"path/filepath"
	"testing"
)

// fingerprintTestGraph builds a small deterministic graph.
func fingerprintTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(8)
	edges := [][2]NodeID{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 0}, {1, 5},
	}
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestFingerprintStableAndSensitive(t *testing.T) {
	g := fingerprintTestGraph(t)
	fp := Fingerprint(g)
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q, want 16 hex digits", fp)
	}
	if again := Fingerprint(g); again != fp {
		t.Fatalf("fingerprint not deterministic: %s vs %s", fp, again)
	}

	// One extra edge must change the digest.
	b := NewBuilder(8)
	g.VisitEdges(func(e Edge) bool { b.AddEdgeSafe(e.U, e.V); return true })
	b.AddEdgeSafe(0, 4)
	if other := Fingerprint(b.Build()); other == fp {
		t.Fatal("fingerprint unchanged after adding an edge")
	}

	// Same edges, one more (isolated) node must change the digest too.
	b2 := NewBuilder(9)
	g.VisitEdges(func(e Edge) bool { b2.AddEdgeSafe(e.U, e.V); return true })
	if other := Fingerprint(b2.Build()); other == fp {
		t.Fatal("fingerprint unchanged after adding a node")
	}
}

// The digest must be identical across every substrate form of the same
// topology: CSR, mmap-backed TNG2 and an unmasked view.
func TestFingerprintConsistentAcrossForms(t *testing.T) {
	g := fingerprintTestGraph(t)
	want := Fingerprint(g)

	path := filepath.Join(t.TempDir(), "g.tng2")
	if err := SaveCSR(path, g); err != nil {
		t.Fatal(err)
	}
	mg, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	if got := Fingerprint(mg); got != want {
		t.Errorf("mapped fingerprint %s, want %s", got, want)
	}

	// A masked view with nothing masked digests identically as well.
	mv := NewMaskedView(g)
	if got := Fingerprint(mv); got != want {
		t.Errorf("unmasked view fingerprint %s, want %s", got, want)
	}
}

func TestFingerprintEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if fp := Fingerprint(g); len(fp) != 16 {
		t.Fatalf("empty-graph fingerprint %q", fp)
	}
}
