package spectral

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/trustnet/trustnet/internal/graph"
)

// oracleResult is what slemOracle reports: the fields of Result that a
// changed mat-vec or recurrence could move.
type oracleResult struct {
	mu         float64
	iterations int
	converged  bool
	residual   float64
	vector     []float64
	// warmed reports that the Warm vector was used, not the fallback.
	warmed bool
}

// slemOracle is the reference Lanczos iteration: single-threaded over a
// CSR copy of v, with the per-arc mat-vec
// y[v] = (Σ_{u∈N(v)} q[u]·(1/√deg u)) · (1/√deg v), one vector operation
// per pass, and the whole basis stored, so the Ritz vector is summed
// from it instead of rebuilt. It mirrors SLEMContext's start vector
// (seeded random, or Warm deflated and re-normalized, with the same
// fallback), its recurrence and its stopping rule, and shares only
// deflate, normalize and the tridiagonal's ritzEnds with it (the dense
// oracle below checks ritzEnds). The explicit float64 conversion rounds
// each product before the addition, so no platform may fuse the two into
// one multiply-add: the reference is the same bits everywhere, and
// SLEMContext must match it.
func slemOracle(t *testing.T, v graph.View, cfg Config) oracleResult {
	t.Helper()
	cfg.fill()
	g := graph.Materialize(v)
	n := g.NumNodes()
	phi := make([]float64, n)
	invSqrtDeg := make([]float64, n)
	norm := 0.0
	for v := 0; v < n; v++ {
		phi[v] = math.Sqrt(float64(g.Degree(graph.NodeID(v))))
		norm += phi[v] * phi[v]
		invSqrtDeg[v] = 1 / math.Sqrt(float64(g.Degree(graph.NodeID(v))))
	}
	norm = math.Sqrt(norm)
	for v := range phi {
		phi[v] /= norm
	}

	q := make([]float64, n)
	warmed := false
	if len(cfg.Warm) == n {
		copy(q, cfg.Warm)
		in := 0.0
		for _, e := range q {
			in += e * e
		}
		deflate(q, phi)
		out := normalize(q)
		warmed = out > 1e-8*math.Sqrt(in) && out > 0
	}
	if !warmed {
		rng := rand.New(rand.NewSource(cfg.Seed))
		for v := range q {
			q[v] = rng.NormFloat64()
		}
		deflate(q, phi)
		if normalize(q) == 0 {
			t.Fatal("oracle: degenerate starting vector")
		}
	}

	basis := [][]float64{q}
	prev := make([]float64, n)
	var ends ritzEnds
	res := oracleResult{warmed: warmed, mu: math.Inf(1)}
	beta := 0.0
	for res.iterations < cfg.MaxIterations {
		w := make([]float64, n)
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				sum += float64(q[u] * invSqrtDeg[u])
			}
			w[v] = sum * invSqrtDeg[v]
		}
		deflate(w, phi)
		alpha := 0.0
		for v := range w {
			alpha += q[v] * w[v]
		}
		for v := range w {
			w[v] = w[v] - alpha*q[v] - beta*prev[v]
		}
		beta = 0
		for _, x := range w {
			beta += x * x
		}
		beta = math.Sqrt(beta)
		res.iterations++
		mu := ends.grow(alpha, beta)
		moved := math.Abs(mu - res.mu)
		res.mu = mu
		if beta <= breakdown || moved < cfg.Tolerance {
			res.converged = true
			break
		}
		for v := range w {
			w[v] /= beta
		}
		prev, q = q, w
		basis = append(basis, q)
	}
	s := ends.vector()
	res.residual = ends.residual(s)
	res.vector = make([]float64, n)
	for j, sj := range s {
		for v, x := range basis[j] {
			res.vector[v] += sj * x
		}
	}
	normalize(res.vector)
	return res
}

// TestEquivalenceSLEMOracle is the gate for the Lanczos recurrence on the
// pre-scaled, unrolled mat-vec: μ, the step count, the convergence flag,
// the residual and the rebuilt KeepVector eigenvector must equal the
// per-arc reference bit for bit — below and above the parallel
// threshold, on the plain graph, a mapped TNG2 file and a masked view,
// at 1 and 3 workers, and from a warm start.
func TestEquivalenceSLEMOracle(t *testing.T) {
	type namedView struct {
		name string
		v    graph.View
	}
	for _, tc := range []struct {
		name      string
		g         *graph.Graph
		cfg       Config
		converges bool
	}{
		{"ba900", mustBA(t, 900, 3, 71), Config{Seed: 5, Tolerance: 1e-9, MaxIterations: 5000}, true},
		// Above the 4096-row parallel threshold, and capped to end on the
		// iteration budget rather than on convergence.
		{"ba5000", mustBA(t, 5000, 3, 72), Config{Seed: 6, Tolerance: 1e-12, MaxIterations: 120}, false},
		{"clustered", mustClusteredPA(t, 3, 120, 3, 2, 73), Config{Seed: 7, Tolerance: 1e-8, MaxIterations: 5000}, true},
	} {
		path := filepath.Join(t.TempDir(), tc.name+".tng2")
		if err := graph.SaveCSR(path, tc.g); err != nil {
			t.Fatal(err)
		}
		mg, err := graph.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mg.Close()
		views := []namedView{{"plain", tc.g}, {"mapped", mg}, {"masked", maskedConnected(t, tc.g)}}

		for _, view := range views {
			want := slemOracle(t, view.v, tc.cfg)
			if want.converged != tc.converges {
				t.Fatalf("%s/%s: reference converged %v, the input is meant to give %v",
					tc.name, view.name, want.converged, tc.converges)
			}
			for _, workers := range []int{1, 3} {
				cfg := tc.cfg
				cfg.Workers = workers
				cfg.KeepVector = true
				got, err := SLEM(view.v, cfg)
				if err != nil {
					t.Fatalf("%s/%s workers=%d: %v", tc.name, view.name, workers, err)
				}
				requireOracle(t, tc.name+"/"+view.name, workers, got, want)
			}
		}
	}

	// A warm start: the vector of a short cold run on a perturbed view,
	// carried to the full graph as the epoch engine does.
	g := mustBA(t, 900, 3, 71)
	first, err := SLEM(maskedConnected(t, g), Config{Seed: 8, Tolerance: 1e-3, KeepVector: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Seed: 9, Tolerance: 1e-10, Warm: first.Eigenvector()}
	want := slemOracle(t, g, cfg)
	if !want.warmed {
		t.Fatal("warm vector fell back to a cold start")
	}
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		cfg.KeepVector = true
		got, err := SLEM(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireOracle(t, "warm", workers, got, want)
	}
}

func requireOracle(t *testing.T, name string, workers int, got *Result, want oracleResult) {
	t.Helper()
	if math.Float64bits(got.SLEM) != math.Float64bits(want.mu) {
		t.Fatalf("%s workers=%d: SLEM %v (%x) != reference %v (%x)",
			name, workers, got.SLEM, math.Float64bits(got.SLEM), want.mu, math.Float64bits(want.mu))
	}
	if got.Iterations != want.iterations || got.Converged != want.converged {
		t.Fatalf("%s workers=%d: %d iterations (converged %v) != reference %d (converged %v)",
			name, workers, got.Iterations, got.Converged, want.iterations, want.converged)
	}
	if math.Float64bits(got.Residual) != math.Float64bits(want.residual) {
		t.Fatalf("%s workers=%d: residual %v != reference %v", name, workers, got.Residual, want.residual)
	}
	vec := got.Eigenvector()
	if len(vec) != len(want.vector) {
		t.Fatalf("%s workers=%d: eigenvector has %d entries, reference %d", name, workers, len(vec), len(want.vector))
	}
	for v := range vec {
		if math.Float64bits(vec[v]) != math.Float64bits(want.vector[v]) {
			t.Fatalf("%s workers=%d: eigenvector[%d] %x != reference %x",
				name, workers, v, math.Float64bits(vec[v]), math.Float64bits(want.vector[v]))
		}
	}
}

// maskedConnected drops every edge whose endpoint sum is divisible by 41
// unless dropping it would disconnect the view, as SLEM requires a
// connected graph.
func maskedConnected(t *testing.T, g *graph.Graph) *graph.MaskedView {
	t.Helper()
	mv := graph.NewMaskedView(g)
	dropped := 0
	g.VisitEdges(func(e graph.Edge) bool {
		if (int(e.U)+int(e.V))%41 == 0 && mv.DropEdge(e.U, e.V) {
			if graph.IsConnected(mv) {
				dropped++
			} else {
				mv.RestoreEdge(e.U, e.V)
			}
		}
		return true
	})
	if dropped == 0 {
		t.Fatal("masked view: no edge dropped")
	}
	return mv
}
