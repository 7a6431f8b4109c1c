// Package spectral computes the second largest eigenvalue modulus (SLEM)
// μ of the random-walk transition matrix P and the Sinclair mixing-time
// bounds the paper uses in §III-C:
//
//	(μ/(1-μ))·log(1/2ε)  <=  T(ε)  <=  (log n + log(1/ε)) / (1-μ)
//
// P = D⁻¹A is similar to the symmetric N = D^(-1/2) A D^(-1/2), so its
// eigenvalues are real. The top eigenvector of N is known in closed form
// (φ_v ∝ √deg(v), with eigenvalue 1 on a connected graph), so μ is the
// largest eigenvalue modulus of N on φ⊥. SLEMContext finds it with the
// Lanczos iteration, without reorthogonalization (Paige 1971; Cullum &
// Willoughby, Lanczos Algorithms for Large Symmetric Eigenvalue
// Computations, 1985): from a unit start vector q_1 ⊥ φ, each step
// extends the Krylov basis by the three-term recurrence
//
//	β_k q_{k+1} = N q_k − α_k q_k − β_{k−1} q_{k−1},   α_k = q_kᵀ N q_k,
//
// re-deflating φ from N q_k on every step, since rounding would
// otherwise bring the eigenvalue-1 direction back. The α and β form a
// tridiagonal T_k whose extreme eigenvalues (Ritz values) θ_max and θ_min
// approach N's from inside, and μ_k = max(|θ_max|, |θ_min|), because
// eigenvalues may be negative and the bounds need the modulus. The
// iteration stops when μ_k moves by less than Tolerance between steps,
// or when a vanishing β_k shows that the Krylov space is invariant and
// μ_k exact. It reports the Ritz residual β_k·|s_k|, where s is the unit
// eigenvector of T_k behind μ_k: ‖N y − θ y‖ for the Ritz vector
// y = Σ_j s_j q_j. The residual certifies that N has an eigenvalue
// within it of θ; that this eigenvalue is the extreme one still depends
// on the start vector overlapping its eigenvector.
//
// Complexity: a step is one sparse mat-vec, O(m), four O(n) vector
// passes, and O(k) to track the two ends of T_k, so k steps cost
// O(k·(m+n) + k²). Memory is O(n): the recurrence holds two basis
// vectors, and the Ritz vector (KeepVector) is rebuilt by running the
// recurrence a second time instead of storing the basis.
//
// The mat-vec N q = D^(-1/2) A D^(-1/2) q is a pre-scaled gather: next
// to q the recurrence keeps the copy w = D^(-1/2) q (it still needs q
// itself), and every row sums its neighbors' entries,
// y[v] = (Σ_{u∈N(v)} w[u]) / √deg v, one at a time in adjacency order
// (the loop unrolled four ways into one accumulator). Each term is the
// rounded product q[u]·(1/√deg u) a per-arc multiply would add, in the
// same order, so the result is the per-arc loop's bit for bit wherever
// the compiler does not fuse that multiply-add (Go fuses only explicit
// math.FMA on amd64); the per-arc loop lives on as the test oracle. The
// rows are partitioned across parallel workers in contiguous spans, so
// every row's sum is accumulated by exactly one worker in a fixed order,
// and dot products and norms are summed serially in node order: the
// iteration is bit-for-bit identical at any worker count and on every
// view. Every product that meets an addition is rounded on its own by
// an explicit float64 conversion, so no architecture fuses the two into
// a multiply-add and arm64 reports amd64's bits (scripts/fmacheck.sh).
package spectral

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/obs"
	"github.com/trustnet/trustnet/internal/parallel"
)

// Observability instruments for the SLEM measurement, resolved once at
// init. They are written once per SLEM call — never inside the Lanczos
// step — so the arithmetic stays untouched and results are bit-identical
// with metrics enabled.
var (
	obsSLEMIterations = obs.Default().Counter("spectral.slem.iterations")
	obsSLEMRitzMatVec = obs.Default().Counter("spectral.slem.ritz_matvecs")
	obsSLEMConverged  = obs.Default().Counter("spectral.slem.converged")
	obsSLEMWarm       = obs.Default().Counter("spectral.slem.warm_starts")
	obsSLEMWarmFallbk = obs.Default().Counter("spectral.slem.warm_fallbacks")
	obsSLEMResidual   = obs.Default().Gauge("spectral.slem.residual")
)

// Config controls the Lanczos iteration.
type Config struct {
	// Tolerance stops the iteration once the estimate μ_k moves by less
	// than Tolerance from one step to the next. Defaults to 1e-10 when
	// zero.
	Tolerance float64
	// MaxIterations bounds the number of Lanczos steps. Defaults to 50000
	// when <= 0.
	MaxIterations int
	// Seed drives the random starting vector.
	Seed int64
	// Workers bounds the row-partitioned mat-vec parallelism; <= 0 uses
	// GOMAXPROCS. The SLEM is bit-for-bit identical at any worker count.
	Workers int
	// Warm seeds the start vector with an approximate eigenvector —
	// typically the previous epoch's, carried across a small topology
	// delta — instead of a random draw. It is only a hint: the vector is
	// deflated against the current graph's φ and re-normalized, and
	// convergence is judged by the usual Tolerance test, so the result
	// meets the same Tolerance as a cold start (a start vector close to
	// the eigenvector makes the Krylov space capture it in a few steps).
	// A degenerate warm vector (wrong length, or ~0 norm after
	// deflation) falls back to the seeded random start.
	Warm []float64
	// KeepVector rebuilds the Ritz vector behind μ once the iteration
	// stops, so callers can feed it back as the next epoch's Warm vector
	// via Eigenvector(). The rebuild runs the recurrence a second time:
	// Iterations−1 more mat-vecs, counted by spectral.slem.ritz_matvecs
	// rather than in Iterations, not interruptible by ctx.
	KeepVector bool
}

func (c *Config) fill() {
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-10
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 50000
	}
}

// ErrNotConnected is returned when the graph is not connected: the SLEM of
// a disconnected graph is 1 and the walk never mixes, so measuring it is
// almost always a caller bug.
var ErrNotConnected = errors.New("spectral: graph is not connected")

// Result carries the SLEM measurement.
type Result struct {
	// SLEM is μ, the second largest eigenvalue modulus of P.
	SLEM float64
	// Iterations is the number of Lanczos steps performed, one mat-vec
	// each.
	Iterations int
	// Converged reports whether the estimate moved by less than
	// Tolerance between two steps, or the Krylov space turned out
	// invariant (μ exact), before MaxIterations.
	Converged bool
	// Residual is the Ritz residual β_k·|s_k| of SLEM: N has an
	// eigenvalue within Residual of the Ritz value behind it.
	Residual float64

	// eigvec is the rebuilt Ritz vector when Config.KeepVector is set.
	eigvec []float64
}

// Eigenvector returns the unit Ritz vector behind the SLEM — an
// approximation of the eigenvector of N — when the run was configured
// with KeepVector, and nil otherwise. The slice is owned
// by the Result and must not be modified; copy it before reuse.
func (r *Result) Eigenvector() []float64 { return r.eigvec }

// breakdown is the β_k below which the Krylov space counts as invariant:
// every Ritz value is then an eigenvalue of N to within β_k (‖N‖ = 1).
const breakdown = 1e-12

// SLEM computes the second largest eigenvalue modulus of the transition
// matrix of the simple random walk on g. It accepts any graph.View;
// because every Lanczos step streams the whole adjacency, non-CSR views
// are materialized once up front (graph.Materialize) and the copy is
// amortized across all steps.
func SLEM(v graph.View, cfg Config) (*Result, error) {
	return SLEMContext(context.Background(), v, cfg)
}

// SLEMContext is SLEM under a context: cancellation is honored between
// Lanczos steps, and a canceled or deadline-hit run returns the context
// error and no estimate.
func SLEMContext(ctx context.Context, v graph.View, cfg Config) (*Result, error) {
	cfg.fill()
	ctx, span := obs.StartSpan(ctx, "spectral.slem")
	defer span.End()
	rec, err := newRecurrence(v, cfg.Workers)
	if err != nil {
		return nil, err
	}
	if err := startVector(rec.q, rec.phi, cfg); err != nil {
		return nil, err
	}
	var q1 []float64
	if cfg.KeepVector {
		q1 = append([]float64(nil), rec.q...)
	}
	rec.restart(rec.q)

	res := &Result{}
	defer func() {
		obsSLEMIterations.Add(int64(res.Iterations))
		if res.Converged {
			obsSLEMConverged.Inc()
		}
	}()
	var ends ritzEnds
	mu := math.Inf(1)
	for res.Iterations < cfg.MaxIterations {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("spectral: %w", err)
		}
		alpha, beta := rec.step()
		res.Iterations++
		next := ends.grow(alpha, beta)
		moved := math.Abs(next - mu)
		mu = next
		if beta <= breakdown || moved < cfg.Tolerance {
			res.Converged = true
			break
		}
	}
	res.SLEM = mu
	s := ends.vector()
	res.Residual = ends.residual(s)
	obsSLEMResidual.Set(res.Residual)
	if cfg.KeepVector {
		res.eigvec = rec.ritzVector(q1, s)
		obsSLEMRitzMatVec.Add(int64(len(s) - 1))
	}
	return res, nil
}

// startVector fills q with the unit start vector, orthogonal to φ: cfg.Warm
// when it carries signal beyond φ, else a seeded Gaussian draw.
func startVector(q, phi []float64, cfg Config) error {
	n := len(q)
	if cfg.Warm != nil && len(cfg.Warm) == n {
		// A warm vector is a hint, not a trajectory: deflate against
		// the CURRENT graph's φ and re-normalize, then converge by the
		// ordinary tolerance test. Degeneracy is judged relative to
		// the incoming norm — a nearly-φ-parallel vector deflates to
		// pure rounding noise, which carries no second-eigenvector
		// signal and would start the iteration from garbage.
		copy(q, cfg.Warm)
		in := 0.0
		for _, e := range q {
			in += float64(e * e)
		}
		deflate(q, phi)
		if out := normalize(q); out > 1e-8*math.Sqrt(in) && out > 0 {
			obsSLEMWarm.Inc()
			return nil
		}
		obsSLEMWarmFallbk.Inc()
	} else if cfg.Warm != nil {
		obsSLEMWarmFallbk.Inc()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for v := range q {
		q[v] = rng.NormFloat64()
	}
	deflate(q, phi)
	if normalize(q) == 0 {
		return errors.New("spectral: degenerate starting vector")
	}
	return nil
}

// recurrence is the Lanczos three-term recurrence on N deflated against
// φ. Running it twice from the same start vector reproduces every basis
// vector bit for bit, which is how ritzVector rebuilds the Ritz vector
// without storing the basis.
type recurrence struct {
	phi, invSqrtDeg []float64
	// spans are the mat-vec's row spans, one per worker.
	spans []graph.Rows
	// q is the current basis vector q_k and prev is q_{k−1} (zero at
	// k = 1); scaled is D^(-1/2) q, the copy the gather reads; w is the
	// scratch for N q, which becomes q_{k+1}.
	q, prev, w, scaled []float64
	// beta is β_{k−1}.
	beta float64
}

// newRecurrence checks that v is a connected graph of at least two nodes
// and sets up the recurrence on it: φ, D^(-1/2), the mat-vec's row spans
// for the given worker bound, and the four basis vectors.
func newRecurrence(v graph.View, workers int) (*recurrence, error) {
	n := v.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("spectral: need >= 2 nodes, got %d", n)
	}
	if v.NumEdges() == 0 {
		return nil, errors.New("spectral: graph has no edges")
	}
	// The iteration needs the CSR arrays: a non-CSR view is materialized
	// once and the copy amortized across all steps.
	g := graph.Materialize(v)
	if !graph.IsConnected(g) {
		return nil, ErrNotConnected
	}

	// φ = sqrt(deg)/||sqrt(deg)||: the top eigenvector of N.
	phi := make([]float64, n)
	invSqrtDeg := make([]float64, n)
	norm := 0.0
	for v := 0; v < n; v++ {
		phi[v] = math.Sqrt(float64(g.Degree(graph.NodeID(v))))
		norm += float64(phi[v] * phi[v])
		invSqrtDeg[v] = 1 / math.Sqrt(float64(g.Degree(graph.NodeID(v))))
	}
	norm = math.Sqrt(norm)
	for v := range phi {
		phi[v] /= norm
	}

	// Row-partitioned w = N q, N_uv = 1/sqrt(deg u deg v) per edge, in
	// gather form: the rows split into equal spans, one per worker, each
	// the only writer of its rows, and every row's neighbor sum is
	// accumulated in adjacency order whatever the partition — so the
	// result is bit-for-bit identical at any span or worker count. Below
	// parallelThreshold rows the fan-out runs on one worker: the per-step
	// goroutine spawn would cost more than the mat-vec, and the gather
	// order (hence the result) is the same either way.
	const parallelThreshold = 4096
	blocks := parallel.Workers(workers, n)
	if n < parallelThreshold {
		blocks = 1
	}
	blockSize := (n + blocks - 1) / blocks
	rows := g.Rows()
	var spans []graph.Rows
	for lo := 0; lo < n; lo += blockSize {
		spans = append(spans, rows.Slice(graph.NodeID(lo), graph.NodeID(min(lo+blockSize, n))))
	}
	return &recurrence{
		phi: phi, invSqrtDeg: invSqrtDeg, spans: spans,
		q: make([]float64, n), prev: make([]float64, n),
		w: make([]float64, n), scaled: make([]float64, n),
	}, nil
}

// restart makes the unit vector q1 ⊥ φ the first basis vector.
func (r *recurrence) restart(q1 []float64) {
	copy(r.q, q1)
	clear(r.prev)
	r.beta = 0
	for v, x := range r.q {
		r.scaled[v] = x * r.invSqrtDeg[v]
	}
}

// step returns α_k and β_k and, unless β_k is below breakdown, advances
// the basis to q_{k+1}. Every sum runs serially in node order.
func (r *recurrence) step() (alpha, beta float64) {
	// ForEach with a background context cannot fail here: the only
	// error sources are fn errors and cancellation.
	_ = parallel.ForEach(context.Background(), len(r.spans), len(r.spans), func(_, b int) error {
		gatherSpan(r.spans[b], r.scaled, r.w, r.invSqrtDeg)
		return nil
	})
	q, prev, w, phi := r.q, r.prev, r.w, r.phi
	dot := 0.0
	for v, x := range w {
		dot += float64(x * phi[v])
	}
	for v := range w {
		w[v] -= float64(dot * phi[v])
		alpha += float64(q[v] * w[v])
	}
	ss := 0.0
	for v := range w {
		w[v] = w[v] - float64(alpha*q[v]) - float64(r.beta*prev[v])
		ss += float64(w[v] * w[v])
	}
	beta = math.Sqrt(ss)
	if beta <= breakdown {
		return alpha, beta
	}
	for v := range w {
		w[v] /= beta
		r.scaled[v] = w[v] * r.invSqrtDeg[v]
	}
	r.prev, r.q, r.w = q, w, prev
	r.beta = beta
	return alpha, beta
}

// ritzVector rebuilds y = Σ_j s_j q_j, normalized, by running the
// recurrence again from q1 for len(s)−1 steps.
func (r *recurrence) ritzVector(q1, s []float64) []float64 {
	y := make([]float64, len(q1))
	r.restart(q1)
	for j, sj := range s {
		if j > 0 {
			r.step()
		}
		for v, x := range r.q {
			y[v] += float64(sj * x)
		}
	}
	normalize(y)
	return y
}

// gatherSpan writes y[v] = (Σ_{u∈N(v)} w[u]) · invSqrtDeg[v] for every
// row v of rows, where w is the pre-scaled copy of the basis vector. The
// neighbor loop is unrolled four ways into one accumulator, so the terms
// are still added one at a time in adjacency order (the package comment
// says why that reproduces the per-arc loop's bits).
func gatherSpan(rows graph.Rows, w, y, invSqrtDeg []float64) {
	lo, hi := rows.Range()
	for v := lo; v < hi; v++ {
		ns := rows.Neighbors(v)
		sum := 0.0
		for ; len(ns) >= 4; ns = ns[4:] {
			sum += w[ns[0]]
			sum += w[ns[1]]
			sum += w[ns[2]]
			sum += w[ns[3]]
		}
		for _, u := range ns {
			sum += w[u]
		}
		y[v] = sum * invSqrtDeg[v]
	}
}

// ritzEnds tracks the extreme eigenvalues of the Lanczos tridiagonal T_k
// (diagonal α_1…α_k, off-diagonal β_1…β_{k−1}) as the iteration appends
// one row per step, and holds β_k, the coupling to the next row that
// sets the Ritz residual. End 0 is θ_max and end 1 is −θ_min: each is the
// largest eigenvalue of sT for its sign s. Newton's method finds it as
// the largest root of p(σ) = det(σI − sT), which above that root is
// positive, increasing and convex, so Newton iterates started above it
// fall to it monotonically. The LDLᵀ pivots of σI − sT yield p'/p in one
// O(k) pass and double as a Sturm count: they are all positive exactly
// when σ lies above every eigenvalue of sT.
type ritzEnds struct {
	// alpha holds α_1…α_k and beta β_1…β_k.
	alpha, beta []float64
	// top[e] is the largest eigenvalue of s_e·T, approached from above,
	// so every pivot of top[e]·I − s_e·T is positive; move[e] is its
	// growth on the last step.
	top, move [2]float64
}

var endSign = [2]float64{1, -1}

const (
	// newtonFloor ends a Newton descent once the next step would be
	// shorter: near the root the steps are rounding noise. It is also
	// the least offset above the previous end a new descent starts at.
	newtonFloor = 0x1p-50
	// maxNewton bounds a descent; clustered roots converge linearly.
	maxNewton = 200
)

// grow appends α_k and β_k and returns
// μ_k = max(|θ_max|, |θ_min|) = max(top[0], top[1]).
func (r *ritzEnds) grow(alpha, beta float64) float64 {
	r.alpha = append(r.alpha, alpha)
	r.beta = append(r.beta, beta)
	k := len(r.alpha)
	if k == 1 {
		r.top = [2]float64{alpha, -alpha}
		return math.Abs(alpha)
	}
	coupling := r.beta[k-2]
	for e, s := range endSign {
		prev := r.top[e]
		// Interlacing lets each end only grow, and its growth shrinks as
		// it converges, so twice the last growth is a close start above
		// the new end; one Sturm count verifies it. If the end grew
		// faster, Weyl's bound (T_k is diag(T_{k−1}, α_k) plus a
		// coupling of norm β_{k−1}) gives a start that is always above
		// it; repeating the bound's margin only absorbs rounding.
		sigma := prev + float64(2*r.move[e]) + newtonFloor
		step, ok := r.newton(s, sigma)
		if !ok {
			for sigma = max(prev, s*alpha) + coupling; ; sigma += coupling {
				if step, ok = r.newton(s, sigma); ok {
					break
				}
			}
		}
		for i := 0; i < maxNewton && step > newtonFloor; i++ {
			st, ok := r.newton(s, sigma-step)
			if !ok {
				break // rounding crossed the root; sigma is within step of it
			}
			sigma, step = sigma-step, st
		}
		r.move[e] = max(sigma-prev, 0)
		r.top[e] = sigma
	}
	return max(r.top[0], r.top[1])
}

// newton returns the Newton step p(σ)/p'(σ) for p(σ) = det(σI − sT), and
// whether σ lies above every eigenvalue of sT. With the pivots
// d_1 = σ − sα_1, d_i = σ − sα_i − β²_{i−1}/d_{i−1} of σI − sT,
// p = Π d_i, so p'/p = Σ d_i'/d_i with d_i' = 1 + β²_{i−1}·d_{i−1}'/d²_{i−1}.
func (r *ritzEnds) newton(s, sigma float64) (float64, bool) {
	d := sigma - float64(s*r.alpha[0])
	if !(d > 0) {
		return 0, false
	}
	inv := 1 / d
	sum, dd := inv, 1.0
	for i, b := range r.beta[:len(r.alpha)-1] {
		t := float64(b * b * inv)
		dd = 1 + float64(t*inv*dd)
		d = sigma - float64(s*r.alpha[i+1]) - t
		if !(d > 0) {
			return 0, false
		}
		inv = 1 / d
		sum += float64(dd * inv)
	}
	return 1 / sum, true
}

// vector returns the unit eigenvector of T_k behind μ_k: two steps of
// inverse iteration from the ones vector, shifted by the end's top. The
// shifted matrix top·I − sT is positive definite — its pivots, computed
// here as newton computed them, are the ones it verified positive — so
// its LDLᵀ factorization needs no pivoting.
func (r *ritzEnds) vector() []float64 {
	k := len(r.alpha)
	if k == 1 {
		return []float64{1}
	}
	e := 0
	if r.top[1] > r.top[0] {
		e = 1
	}
	s, sigma := endSign[e], r.top[e]
	d := make([]float64, k)   // pivots
	l := make([]float64, k-1) // l[i] is the multiplier below pivot i
	d[0] = sigma - float64(s*r.alpha[0])
	for i, b := range r.beta[:k-1] {
		inv := 1 / d[i]
		l[i] = -s * b * inv
		d[i+1] = sigma - float64(s*r.alpha[i+1]) - float64(b*b*inv)
	}
	z := make([]float64, k)
	for i := range z {
		z[i] = 1
	}
	for range 2 {
		for i := 1; i < k; i++ {
			z[i] -= float64(l[i-1] * z[i-1])
		}
		for i := range z {
			z[i] /= d[i]
		}
		for i := k - 2; i >= 0; i-- {
			z[i] -= float64(l[i] * z[i+1])
		}
		normalize(z)
	}
	return z
}

// residual returns the Ritz residual β_k·|s_k| of the unit eigenvector s
// of T_k.
func (r *ritzEnds) residual(s []float64) float64 {
	return r.beta[len(s)-1] * math.Abs(s[len(s)-1])
}

// deflate removes the component of x along the unit vector phi.
func deflate(x, phi []float64) {
	dot := 0.0
	for i := range x {
		dot += float64(x[i] * phi[i])
	}
	for i := range x {
		x[i] -= float64(dot * phi[i])
	}
}

// normalize scales x to unit 2-norm and returns the previous norm.
func normalize(x []float64) float64 {
	norm := 0.0
	for _, v := range x {
		norm += float64(v * v)
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		return 0
	}
	for i := range x {
		x[i] /= norm
	}
	return norm
}

// Bounds holds the Sinclair mixing-time bounds derived from μ.
type Bounds struct {
	Lower float64
	Upper float64
}

// CheegerLower returns the Cheeger lower bound on graph conductance
// implied by the spectral gap: every cut of the graph has conductance at
// least (1-λ₂)/2, where λ₂ is the second eigenvalue of the transition
// matrix. Since μ >= λ₂, (1-μ)/2 is a valid (possibly weaker) bound, and
// that is what this function computes from the measured SLEM. It ties the
// mixing measurement to the expansion measurement: a fast mixer provably
// has no sparse cuts.
func CheegerLower(mu float64) (float64, error) {
	if mu < 0 || mu > 1 {
		return 0, fmt.Errorf("spectral: cheeger bound needs mu in [0,1], got %v", mu)
	}
	return (1 - mu) / 2, nil
}

// MixingBounds evaluates the Sinclair bounds for a graph with n nodes,
// SLEM mu, and variation-distance target eps.
func MixingBounds(n int, mu, eps float64) (Bounds, error) {
	if n < 2 {
		return Bounds{}, fmt.Errorf("spectral: bounds need n >= 2, got %d", n)
	}
	if mu <= 0 || mu >= 1 {
		return Bounds{}, fmt.Errorf("spectral: bounds need mu in (0,1), got %v", mu)
	}
	if eps <= 0 || eps >= 1 {
		return Bounds{}, fmt.Errorf("spectral: bounds need eps in (0,1), got %v", eps)
	}
	return Bounds{
		Lower: mu / (1 - mu) * math.Log(1/(2*eps)),
		Upper: (math.Log(float64(n)) + math.Log(1/eps)) / (1 - mu),
	}, nil
}
