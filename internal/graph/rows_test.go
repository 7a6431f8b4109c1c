package graph

import (
	"slices"
	"testing"
)

// TestRowsMatchNeighbors checks every CSR fragment against the graph it
// slices: the whole-graph Rows and its sub-slices must cover the expected
// node range and report each row's degree and neighbor list exactly as
// Graph does.
func TestRowsMatchNeighbors(t *testing.T) {
	g := randomGraph(t, 120, 0.06, 9)
	check := func(name string, r Rows, lo, hi NodeID) {
		t.Helper()
		if gotLo, gotHi := r.Range(); gotLo != lo || gotHi != hi {
			t.Fatalf("%s: range [%d, %d), want [%d, %d)", name, gotLo, gotHi, lo, hi)
		}
		base, offsets, adj := r.CSR()
		if base != lo || len(offsets) != int(hi-lo)+1 {
			t.Fatalf("%s: raw fragment has base %d and %d offsets, want %d and %d", name, base, len(offsets), lo, hi-lo+1)
		}
		for v := lo; v < hi; v++ {
			if r.Degree(v) != g.Degree(v) || !slices.Equal(r.Neighbors(v), g.Neighbors(v)) {
				t.Fatalf("%s: row %d is %v (degree %d), want %v", name, v, r.Neighbors(v), r.Degree(v), g.Neighbors(v))
			}
			i := v - base
			if raw := adj[offsets[i]:offsets[i+1]]; !slices.Equal(raw, g.Neighbors(v)) {
				t.Fatalf("%s: raw row %d is %v, want %v", name, v, raw, g.Neighbors(v))
			}
		}
	}
	n := NodeID(g.NumNodes())
	whole := g.Rows()
	check("whole", whole, 0, n)
	check("slice", whole.Slice(17, 90), 17, 90)
	check("empty slice", whole.Slice(40, 40), 40, 40)
	check("slice of a slice", whole.Slice(17, 90).Slice(30, 61), 30, 61)
	var empty Graph
	if lo, hi := empty.Rows().Range(); lo != 0 || hi != 0 {
		t.Fatalf("empty graph rows cover [%d, %d)", lo, hi)
	}
}
