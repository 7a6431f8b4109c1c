package spectral

import (
	"math"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

func warmTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(1500, 5, 17)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestEquivalenceWarmVsColdStart is the warm-start correctness gate: a
// warm-started run on a slightly perturbed graph must converge to the
// same SLEM as a cold start within tolerance, in no more (and in
// practice far fewer) iterations.
func TestEquivalenceWarmVsColdStart(t *testing.T) {
	g := warmTestGraph(t)

	first, err := SLEM(g, Config{Seed: 1, KeepVector: true})
	if err != nil {
		t.Fatal(err)
	}
	if first.Eigenvector() == nil {
		t.Fatal("KeepVector run returned no eigenvector")
	}

	// Perturb the topology slightly — the epoch-advance shape — and
	// measure the largest component warm and cold.
	mv := graph.NewMaskedView(g)
	dropped := 0
	g.VisitEdges(func(e graph.Edge) bool {
		if (int(e.U)+int(e.V))%97 == 0 {
			if mv.DropEdge(e.U, e.V) {
				dropped++
			}
		}
		return true
	})
	if dropped == 0 {
		t.Fatal("perturbation dropped no edges")
	}
	lcc, nodes := graph.LargestComponent(mv)

	// Transfer the old vector through the component's node mapping.
	warm := make([]float64, lcc.NumNodes())
	for local, orig := range nodes {
		warm[local] = first.Eigenvector()[orig]
	}

	cold, err := SLEM(lcc, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := SLEM(lcc, Config{Seed: 1, Warm: warm})
	if err != nil {
		t.Fatal(err)
	}
	if !cold.Converged || !hot.Converged {
		t.Fatalf("convergence: cold %v hot %v", cold.Converged, hot.Converged)
	}
	// Successive-estimate tolerance is 1e-10; the two runs approach the
	// same eigenvalue from different iterates, so allow slack above it.
	if diff := math.Abs(cold.SLEM - hot.SLEM); diff > 1e-6 {
		t.Fatalf("warm SLEM %v vs cold %v: diff %v above tolerance", hot.SLEM, cold.SLEM, diff)
	}
	if hot.Iterations > cold.Iterations {
		t.Fatalf("warm start took %d iterations, cold took %d — warm vector hurt convergence",
			hot.Iterations, cold.Iterations)
	}
	t.Logf("cold %d iterations, warm %d", cold.Iterations, hot.Iterations)
}

// TestWarmDegenerateFallsBackToColdStart feeds warm vectors with no
// second-eigenvector signal (φ itself, zeros, wrong length) and checks
// each falls back to the seeded random start, bit-identical to cold.
func TestWarmDegenerateFallsBackToColdStart(t *testing.T) {
	g := warmTestGraph(t)
	cold, err := SLEM(g, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	n := g.NumNodes()
	phi := make([]float64, n)
	for v := 0; v < n; v++ {
		phi[v] = math.Sqrt(float64(g.Degree(graph.NodeID(v))))
	}
	for name, warm := range map[string][]float64{
		"phi-parallel": phi,
		"zeros":        make([]float64, n),
		"wrong-length": make([]float64, n/2),
	} {
		hot, err := SLEM(g, Config{Seed: 1, Warm: warm})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hot.SLEM != cold.SLEM || hot.Iterations != cold.Iterations {
			t.Fatalf("%s: fallback run (%v, %d its) differs from cold start (%v, %d its)",
				name, hot.SLEM, hot.Iterations, cold.SLEM, cold.Iterations)
		}
	}
}

// TestKeepVectorDoesNotLeakCheckpoint checks that KeepVector on a
// complete run retains a unit eigenvector of the graph's size.
func TestKeepVectorDoesNotLeakCheckpoint(t *testing.T) {
	g := warmTestGraph(t)
	r, err := SLEM(g, Config{Seed: 1, KeepVector: true})
	if err != nil {
		t.Fatal(err)
	}
	vec := r.Eigenvector()
	if len(vec) != g.NumNodes() {
		t.Fatalf("eigenvector has %d entries, want %d", len(vec), g.NumNodes())
	}
	norm := 0.0
	for _, x := range vec {
		norm += x * x
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-9 {
		t.Fatalf("retained eigenvector is not unit norm: %v", math.Sqrt(norm))
	}
}
