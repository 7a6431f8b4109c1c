package kernels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/trustnet/trustnet/internal/graph"
)

// skipWithoutVector skips a test of the vector dense step on machines
// that never run it.
func skipWithoutVector(t *testing.T) {
	t.Helper()
	if !useVector {
		t.Skip("the vector dense step needs an amd64 CPU with AVX2; this one runs the pure-Go loops only")
	}
}

// TestEquivalenceDenseStepVector checks the vector dense step against
// the pure-Go loops bit for bit: the sparse steps' distances, the
// hand-over's shareRows and then the fused stepRows, with and without
// the distance fold, over the whole graph's Rows and over its cuts into
// 3 and 7 spans, for the plain and the lazy walk at block widths 1, 5,
// 16, 17 and 64 (row strides 8, 16, 24 and 64, with padding columns,
// and an 8-column tail after the 16-column chunks at 24). The graph has
// isolated rows, degree-1 rows and a hub, and more than vectorRows rows,
// so the wrappers split the whole graph across several assembly calls,
// and the spans start and end inside those calls' row chunks.
func TestEquivalenceDenseStepVector(t *testing.T) {
	skipWithoutVector(t)
	g := denseTestGraph(t, 2600)
	fragments := map[string][]graph.Rows{"whole": {g.Rows()}}
	for _, k := range []int{3, 7} {
		fragments[fmt.Sprintf("spans%d", k)] = rowSpans(g, k)
	}
	rng := rand.New(rand.NewSource(19))
	value := func() float64 {
		switch r := rng.Intn(16); r {
		case 0:
			return 0
		case 1:
			return 4.9e-324 * float64(1+rng.Intn(1000)) // subnormal
		case 2:
			return 1e300 * rng.Float64()
		default:
			return rng.Float64()
		}
	}
	for name, frags := range fragments {
		for _, lazy := range []bool{false, true} {
			for _, b := range []int{1, 5, 16, 17, 64} {
				label := fmt.Sprintf("%s lazy=%v width=%d", name, lazy, b)
				compareDenseStep(t, label, frags, g.NumNodes(), b, lazy, 3, func(int) float64 { return value() })
			}
		}
	}
}

// FuzzDenseStepVector runs fuzzed graphs and column values through both
// dense-step paths, as TestEquivalenceDenseStepVector does. The edge
// list is a sequence of uint16 endpoint pairs; the values, finite and
// non-negative, are every 8 bytes of values with the sign cleared and an
// infinite or NaN exponent made finite, reused cyclically.
func FuzzDenseStepVector(f *testing.F) {
	hub := make([]byte, 0, 4*40)
	for v := uint16(1); v <= 40; v++ {
		hub = binary.LittleEndian.AppendUint16(hub, 0)
		hub = binary.LittleEndian.AppendUint16(hub, v)
	}
	vals := make([]byte, 0, 8*6)
	for _, x := range []float64{0.25, 0, 1e-310, 3, 1e300, 0.1} {
		vals = binary.LittleEndian.AppendUint64(vals, math.Float64bits(x))
	}
	f.Add(uint16(60), uint8(5), true, uint8(1), hub, vals)
	f.Add(uint16(60), uint8(16), false, uint8(3), hub, vals)
	f.Add(uint16(1500), uint8(17), true, uint8(7), hub, vals)
	f.Add(uint16(9), uint8(64), false, uint8(2), []byte{1, 0, 2, 0, 2, 0, 3, 0, 8, 0, 3, 0}, []byte{})
	f.Add(uint16(1), uint8(1), true, uint8(1), []byte{}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, nodes uint16, width uint8, lazy bool, spans uint8, edges, values []byte) {
		skipWithoutVector(t)
		n := int(nodes)%3000 + 1
		b := int(width)%64 + 1
		gb := graph.NewBuilder(n)
		for i := 0; i+4 <= len(edges); i += 4 {
			u := int(binary.LittleEndian.Uint16(edges[i:])) % n
			v := int(binary.LittleEndian.Uint16(edges[i+2:])) % n
			gb.AddEdgeSafe(graph.NodeID(u), graph.NodeID(v))
		}
		g := gb.Build()
		frags := rowSpans(g, int(spans)%8+1)
		pool := []float64{1}
		if len(values) >= 8 {
			pool = pool[:0]
			for i := 0; i+8 <= len(values); i += 8 {
				bits := binary.LittleEndian.Uint64(values[i:]) &^ (1 << 63)
				if bits>>52 == 0x7ff {
					bits &^= 1 << 62
				}
				pool = append(pool, math.Float64frombits(bits))
			}
		}
		label := fmt.Sprintf("n=%d width=%d lazy=%v spans=%d", n, b, lazy, len(frags))
		compareDenseStep(t, label, frags, n, b, lazy, 2, func(i int) float64 { return pool[i%len(pool)] })
	})
}

// rowSpans cuts g's rows into k contiguous spans, at i·n/k for i in
// [1, k), so the cuts fall inside the vector bodies' row chunks rather
// than on their boundaries. Spans may be empty when k exceeds n.
func rowSpans(g *graph.Graph, k int) []graph.Rows {
	n := g.NumNodes()
	spans := make([]graph.Rows, k)
	for i := range spans {
		spans[i] = g.Rows().Slice(graph.NodeID(i*n/k), graph.NodeID((i+1)*n/k))
	}
	return spans
}

// compareDenseStep fills a block of width b over n rows with value(i)
// for its i-th live entry (padding columns hold +0.0, as in every
// block) and draws a target from value too. Through both paths it folds
// the block's distances to the target as a sparse step does, writes its
// share rows as the hand-over does, then takes steps fused dense steps
// over frags, folding the distances on even steps and not on odd ones,
// and checks every buffer bit for bit after each pass. A plain step gets
// no mass, as in a block.
func compareDenseStep(t *testing.T, label string, frags []graph.Rows, n, b int, lazy bool, steps int, value func(int) float64) {
	t.Helper()
	st := rowStride(b)
	mass := make([]float64, n*st)
	for v := 0; v < n; v++ {
		for j := 0; j < b; j++ {
			mass[v*st+j] = value(v*b + j)
		}
	}
	target := make([]float64, n)
	for v := range target {
		target[v] = value(n*b + v)
	}
	out, goOut, acc, goAcc := make([]float64, b), make([]float64, b), make([]float64, st), make([]float64, st)
	distancesToGo(mass, b, st, target, goOut)
	distancesToVector(mass, st, target, out, acc)
	sameBits(t, label+" distances", b, goOut, out)

	in, next := make([]float64, n*st), make([]float64, n*st)
	goIn, goNext := make([]float64, n*st), make([]float64, n*st)
	for _, r := range frags {
		shareRowsGo(r, mass, goIn, b, st, lazy)
		shareRowsVector(r, mass, in, st, lazy)
	}
	sameBits(t, label+" share", st, goIn, in)
	goMass := slices.Clone(mass)
	if !lazy {
		mass, goMass = nil, nil
	}
	for step := 0; step < steps; step++ {
		what := fmt.Sprintf("%s step=%d", label, step)
		var tgt []float64
		if step%2 == 0 {
			tgt = target
			clear(acc)
			clear(goAcc)
		}
		for _, r := range frags {
			stepRowsGo(r, goMass, goIn, goNext, st, lazy, tgt, goAcc)
			stepRowsVector(r, mass, in, next, st, lazy, tgt, acc)
		}
		sameBits(t, what+" shares", st, goNext, next)
		sameBits(t, what+" mass", st, goMass, mass)
		if tgt != nil {
			sameBits(t, what+" distance sums", st, goAcc, acc)
		}
		in, next = next, in
		goIn, goNext = goNext, goIn
	}
}

// sameBits fails unless got and want agree in every bit; st is the row
// stride used to name the first differing entry.
func sameBits(t *testing.T, what string, st int, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d column %d is %x (%g), want %x (%g)",
				what, i/st, i%st, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// denseTestGraph returns an n-node graph with every row shape the dense
// step handles: isolated rows (node 0, every 97th node and the last),
// degree-1 rows (every node ≡ 3 mod 11, hanging off its predecessor), a
// hub (node 1, joined to every fifth node) and sparse random edges among
// the rest.
func denseTestGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	isolated := func(v int) bool { return v%97 == 0 || v == n-1 }
	pendant := func(v int) bool { return v%11 == 3 && !isolated(v) && !isolated(v-1) }
	core := func(v int) bool { return !isolated(v) && !pendant(v) }
	gb := graph.NewBuilder(n)
	for v := 2; v < n; v++ {
		switch {
		case pendant(v):
			gb.AddEdgeSafe(graph.NodeID(v-1), graph.NodeID(v))
		case v%5 == 0 && core(v):
			gb.AddEdgeSafe(1, graph.NodeID(v))
		}
	}
	rng := rand.New(rand.NewSource(7))
	for e := 0; e < 3*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if core(u) && core(v) && u > 1 && v > 1 {
			gb.AddEdgeSafe(graph.NodeID(u), graph.NodeID(v))
		}
	}
	g := gb.Build()
	var deg0, deg1 int
	for v := 0; v < n; v++ {
		switch g.Degree(graph.NodeID(v)) {
		case 0:
			deg0++
		case 1:
			deg1++
		}
	}
	if deg0 == 0 || deg1 == 0 || g.Degree(1) < n/10 {
		t.Fatalf("test graph lacks a row shape: %d isolated, %d degree-1, hub degree %d", deg0, deg1, g.Degree(1))
	}
	return g
}
