package spectral

import (
	"context"
	"math"
	"testing"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/parallel"
)

// powerIteration is the SLEM method Lanczos replaced, kept as the
// accuracy test's baseline: power iteration on N deflated against φ from
// the seeded start, stopped when two successive estimates differ by
// less than the tolerance, or after maxIterations with the last
// estimate. One run serves every tolerance, since a looser one stops on
// the same trajectory earlier: mu[i] is the estimate at tols[i], which
// must be in decreasing order.
func powerIteration(g *graph.Graph, seed int64, maxIterations int, tols []float64) (mu []float64) {
	rec, err := newRecurrence(g, 1)
	if err != nil {
		panic(err)
	}
	x, y := rec.q, rec.w
	if err := startVector(x, rec.phi, Config{Seed: seed}); err != nil {
		panic(err)
	}
	rows := g.Rows()
	prev := math.Inf(1)
	for it := 0; it < maxIterations && len(mu) < len(tols); it++ {
		for v := range x {
			x[v] *= rec.invSqrtDeg[v]
		}
		gatherSpan(rows, x, y, rec.invSqrtDeg)
		deflate(y, rec.phi)
		lambda := normalize(y)
		x, y = y, x
		for len(mu) < len(tols) && math.Abs(lambda-prev) < tols[len(mu)] {
			mu = append(mu, lambda)
		}
		prev = lambda
	}
	for len(mu) < len(tols) {
		mu = append(mu, prev)
	}
	return mu
}

// lanczosReference runs the recurrence from the seeded start until the
// Ritz residual of μ_k is at most target, checking it on every step, and
// returns μ_k, the residual and the step count (ok false if maxSteps
// ran out first).
func lanczosReference(g *graph.Graph, seed int64, target float64, maxSteps int) (mu, residual float64, steps int, ok bool) {
	rec, err := newRecurrence(g, 1)
	if err != nil {
		panic(err)
	}
	if err := startVector(rec.q, rec.phi, Config{Seed: seed}); err != nil {
		panic(err)
	}
	rec.restart(rec.q)
	var ends ritzEnds
	for steps < maxSteps {
		steps++
		mu = ends.grow(rec.step())
		residual = ends.residual(ends.vector())
		if residual <= target {
			return mu, residual, steps, true
		}
	}
	return mu, residual, steps, false
}

// TestLanczosCloserThanPowerIteration pins the accuracy Lanczos brought:
// on every stand-in, at seeds 1–6 and at the tolerances the repository
// uses (1e-4, perfbench's 1e-6, Table I's 1e-7, each with Table I's
// 20,000-step budget), μ must lie closer than power iteration's to a
// Lanczos reference run to a Ritz residual of at most 1e-11, in at
// least 265 of the 270 cases and in summed error. The cases allowed to
// miss are plateaus on an eigenvalue near μ that the start vector barely
// overlaps (slashdot-b at seed 5 and 1e-6 is one); power iteration
// shares that dependence on the start.
func TestLanczosCloserThanPowerIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("measures 15 stand-ins at 18 settings each")
	}
	tols := []float64{1e-4, 1e-6, 1e-7}
	const maxIterations, seeds = 20000, 6
	specs := datasets.All()
	graphs := make([]*graph.Graph, len(specs))
	refs := make([]float64, len(specs))
	for i, spec := range specs {
		g, err := spec.Generate()
		if err != nil {
			t.Fatal(err)
		}
		ref, _, steps, ok := lanczosReference(g, 1, 1e-11, 2000)
		if !ok {
			t.Fatalf("%s: reference did not reach a 1e-11 residual in %d steps", spec.Name, steps)
		}
		graphs[i], refs[i] = g, ref
	}
	// Power iteration takes 19,557 iterations over the stand-ins at 1e-7
	// per seed; the (stand-in, seed) runs fan out across the CPUs.
	type run struct{ lanczos, power []float64 }
	runs := make([]run, len(specs)*seeds)
	err := parallel.ForEach(context.Background(), 0, len(runs), func(_, i int) error {
		g, seed := graphs[i/seeds], int64(i%seeds+1)
		runs[i].power = powerIteration(g, seed, maxIterations, tols)
		for _, tol := range tols {
			r, err := SLEM(g, Config{Tolerance: tol, MaxIterations: maxIterations, Seed: seed, Workers: 1})
			if err != nil {
				return err
			}
			runs[i].lanczos = append(runs[i].lanczos, r.SLEM)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	closer := 0
	var errLanczos, errPower float64
	for i, r := range runs {
		spec, ref := specs[i/seeds], refs[i/seeds]
		for j, tol := range tols {
			el, ep := math.Abs(r.lanczos[j]-ref), math.Abs(r.power[j]-ref)
			errLanczos += el
			errPower += ep
			if el < ep {
				closer++
			} else {
				t.Logf("%s seed %d tol %g: Lanczos %.12f, power iteration %.12f, reference %.12f",
					spec.Name, i%seeds+1, tol, r.lanczos[j], r.power[j], ref)
			}
		}
	}
	cases := len(runs) * len(tols)
	t.Logf("Lanczos closer in %d of %d cases; summed |error| %.3g against power iteration's %.3g",
		closer, cases, errLanczos, errPower)
	if closer < cases-5 || errLanczos >= errPower {
		t.Fatalf("Lanczos closer in %d of %d cases (want >= %d), summed |error| %.3g against %.3g",
			closer, cases, cases-5, errLanczos, errPower)
	}
}
