package spectral

import (
	"math"
	"sort"
	"testing"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

// denseSLEM is the dense oracle: it forms N = D^(-1/2) A D^(-1/2) of g
// explicitly, finds all its eigenvalues with cyclic Jacobi rotations,
// drops the largest (the eigenvalue 1 of φ) and returns the largest
// modulus of the rest.
func denseSLEM(g *graph.Graph) float64 {
	n := g.NumNodes()
	a := make([][]float64, n)
	for u := range a {
		a[u] = make([]float64, n)
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			a[u][v] = 1 / math.Sqrt(float64(g.Degree(graph.NodeID(u)))*float64(g.Degree(v)))
		}
	}
	eig := jacobiEigenvalues(a)
	sort.Float64s(eig)
	eig = eig[:n-1]
	return math.Max(eig[n-2], -eig[0])
}

// jacobiEigenvalues returns the eigenvalues of the symmetric matrix a,
// which it overwrites, sweeping Jacobi rotations over every
// off-diagonal pair until the off-diagonal mass is below 1e-24.
func jacobiEigenvalues(a [][]float64) []float64 {
	n := len(a)
	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				off += a[p][q] * a[p][q]
			}
		}
		if off < 1e-24 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if a[p][q] == 0 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					akp, akq := a[k][p], a[k][q]
					a[k][p], a[k][q] = c*akp-s*akq, s*akp+c*akq
				}
				for k := 0; k < n; k++ {
					apk, aqk := a[p][k], a[q][k]
					a[p][k], a[q][k] = c*apk-s*aqk, s*apk+c*aqk
				}
			}
		}
	}
	eig := make([]float64, n)
	for i := range eig {
		eig[i] = a[i][i]
	}
	return eig
}

// TestSLEMDenseOracle checks μ against a dense eigensolve on small
// graphs that cover the spectrum's shapes: a complete graph (one
// eigenvalue on φ⊥, found in one step), an odd cycle (μ from the most
// negative eigenvalue, every other one double), a bipartite grid
// (eigenvalue −1, so μ = 1), and a small BA and clustered PA graph.
func TestSLEMDenseOracle(t *testing.T) {
	complete, err := gen.Complete(30)
	if err != nil {
		t.Fatal(err)
	}
	cycle, err := gen.Cycle(31)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := gen.Grid(10, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"complete30", complete},
		{"cycle31", cycle},
		{"grid10x12", grid},
		{"ba250", mustBA(t, 250, 3, 81)},
		{"clustered4x50", mustClusteredPA(t, 4, 50, 3, 2, 82)},
	} {
		want := denseSLEM(tc.g)
		for _, seed := range []int64{1, 2} {
			got, err := SLEM(tc.g, Config{Tolerance: 1e-12, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Converged || math.Abs(got.SLEM-want) > 1e-9 {
				t.Errorf("%s seed %d: SLEM %.15f (converged %v after %d steps), dense eigensolve %.15f",
					tc.name, seed, got.SLEM, got.Converged, got.Iterations, want)
			}
		}
	}
}

// TestSLEMResidualMatchesRitzVector checks Result.Residual, the Ritz
// residual read off the tridiagonal, against ‖N y − θ y‖ computed
// explicitly for the rebuilt Ritz vector y, θ = ±SLEM: on every stand-in
// at perfbench's tolerance the two must agree within 10%.
func TestSLEMResidualMatchesRitzVector(t *testing.T) {
	for _, spec := range datasets.All() {
		g, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		r, err := SLEM(g, Config{Tolerance: 1e-6, Seed: 1, KeepVector: true})
		if err != nil {
			t.Fatal(err)
		}
		y := r.Eigenvector()
		ny := make([]float64, len(y))
		rayleigh := 0.0
		for v := range ny {
			for _, u := range g.Neighbors(graph.NodeID(v)) {
				ny[v] += y[u] / math.Sqrt(float64(g.Degree(u))*float64(g.Degree(graph.NodeID(v))))
			}
			rayleigh += y[v] * ny[v]
		}
		theta := math.Copysign(r.SLEM, rayleigh)
		explicit := 0.0
		for v := range ny {
			d := ny[v] - theta*y[v]
			explicit += d * d
		}
		explicit = math.Sqrt(explicit)
		if math.Abs(explicit-r.Residual) > 0.1*r.Residual {
			t.Errorf("%s: Residual %.3g, ‖Ny − θy‖ of the Ritz vector %.3g", spec.Name, r.Residual, explicit)
		}
	}
}

func mustBA(t *testing.T, n, attach int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(n, attach, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustClusteredPA(t *testing.T, comms, size, attach, bridges int, seed int64) *graph.Graph {
	t.Helper()
	g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities: comms, CommunitySize: size, Attach: attach, Bridges: bridges, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}
