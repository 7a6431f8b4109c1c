package spectral

import (
	"context"
	"errors"
	"math"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/walk"
)

func slemOf(t *testing.T, g *graph.Graph) float64 {
	t.Helper()
	return slemWith(t, g, Config{Seed: 1})
}

// slemWith runs SLEM with an explicit config, for graphs whose spectrum
// has a cluster of eigenvalues near λ₂ (e.g. multi-community graphs).
func slemWith(t *testing.T, g *graph.Graph, cfg Config) float64 {
	t.Helper()
	r, err := SLEM(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Converged {
		t.Fatalf("Lanczos did not converge in %d steps", r.Iterations)
	}
	return r.SLEM
}

func TestSLEMCompleteGraph(t *testing.T) {
	// K_n has P-eigenvalues {1, -1/(n-1)}: SLEM = 1/(n-1).
	for _, n := range []int{4, 10, 25} {
		g, err := gen.Complete(n)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / float64(n-1)
		if got := slemOf(t, g); math.Abs(got-want) > 1e-6 {
			t.Errorf("SLEM(K%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSLEMOddCycle(t *testing.T) {
	// C_n (odd) has SLEM cos(π/n), achieved by the most negative eigenvalue.
	for _, n := range []int{5, 9, 15} {
		g, err := gen.Cycle(n)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Cos(math.Pi / float64(n))
		if got := slemOf(t, g); math.Abs(got-want) > 1e-6 {
			t.Errorf("SLEM(C%d) = %v, want %v", n, got, want)
		}
	}
}

func TestSLEMBipartiteIsOne(t *testing.T) {
	// Bipartite graphs have eigenvalue -1: SLEM = 1.
	g, err := gen.Star(10)
	if err != nil {
		t.Fatal(err)
	}
	if got := slemOf(t, g); math.Abs(got-1) > 1e-6 {
		t.Errorf("SLEM(star) = %v, want 1", got)
	}
	g, err = gen.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	if got := slemOf(t, g); math.Abs(got-1) > 1e-6 {
		t.Errorf("SLEM(C8) = %v, want 1", got)
	}
}

func TestSLEMFastVsSlowGraphs(t *testing.T) {
	fast, err := gen.BarabasiAlbert(300, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	slow, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities: 6, CommunitySize: 50, Attach: 3, Bridges: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	muFast := slemOf(t, fast)
	muSlow := slemWith(t, slow, Config{Seed: 1, Tolerance: 1e-7})
	if muFast >= muSlow {
		t.Errorf("SLEM fast=%v >= slow=%v; community graph should be closer to 1", muFast, muSlow)
	}
	if muSlow < 0.9 {
		t.Errorf("SLEM(slow community graph) = %v, expected > 0.9", muSlow)
	}
}

func TestSLEMErrors(t *testing.T) {
	if _, err := SLEM(graph.NewBuilder(1).Build(), Config{}); err == nil {
		t.Error("SLEM(single node): want error")
	}
	if _, err := SLEM(graph.NewBuilder(3).Build(), Config{}); err == nil {
		t.Error("SLEM(no edges): want error")
	}
	b := graph.NewBuilder(4)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := SLEM(b.Build(), Config{}); !errors.Is(err, ErrNotConnected) {
		t.Errorf("SLEM(disconnected) = %v, want ErrNotConnected", err)
	}
}

func TestSLEMDeterministicAcrossSeeds(t *testing.T) {
	// Different random starting vectors must converge to the same value.
	g, err := gen.BarabasiAlbert(150, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	var base float64
	for i, seed := range []int64{1, 2, 99} {
		r, err := SLEM(g, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			base = r.SLEM
			continue
		}
		if math.Abs(r.SLEM-base) > 1e-6 {
			t.Errorf("seed %d: SLEM = %v, want %v", seed, r.SLEM, base)
		}
	}
}

func TestMixingBounds(t *testing.T) {
	b, err := MixingBounds(1000, 0.9, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if b.Lower <= 0 || b.Upper <= b.Lower {
		t.Errorf("bounds = %+v, want 0 < lower < upper", b)
	}
	for _, bad := range []struct {
		n       int
		mu, eps float64
	}{{1, 0.5, 0.1}, {10, 0, 0.1}, {10, 1, 0.1}, {10, 0.5, 0}, {10, 0.5, 1}} {
		if _, err := MixingBounds(bad.n, bad.mu, bad.eps); err == nil {
			t.Errorf("MixingBounds(%+v): want error", bad)
		}
	}
}

func TestSLEMUpperBoundDominatesSampledMixing(t *testing.T) {
	// The Sinclair upper bound is for the worst source, so the sampled
	// mixing time must not exceed it (integration check between the
	// spectral and sampling measurements).
	g, err := gen.BarabasiAlbert(250, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	mu := slemOf(t, g)
	eps := 0.05
	bounds, err := MixingBounds(g.NumNodes(), mu, eps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := walk.MeasureMixing(context.Background(), g, walk.MixingConfig{MaxSteps: 200, Sources: 15, Lazy: false, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	tmix, ok := res.MixingTime(eps)
	if !ok {
		t.Fatalf("graph did not mix to %v within 200 steps (mu=%v)", eps, mu)
	}
	if float64(tmix) > math.Ceil(bounds.Upper) {
		t.Errorf("sampled mixing time %d exceeds Sinclair upper bound %v", tmix, bounds.Upper)
	}
}

func TestNormalizeZeroVector(t *testing.T) {
	x := []float64{0, 0, 0}
	if got := normalize(x); got != 0 {
		t.Errorf("normalize(0) = %v, want 0", got)
	}
}

func TestDeflateOrthogonalizes(t *testing.T) {
	phi := []float64{1 / math.Sqrt2, 1 / math.Sqrt2}
	x := []float64{3, 1}
	deflate(x, phi)
	dot := x[0]*phi[0] + x[1]*phi[1]
	if math.Abs(dot) > 1e-12 {
		t.Errorf("deflated dot = %v, want 0", dot)
	}
}
