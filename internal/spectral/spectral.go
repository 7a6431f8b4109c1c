// Package spectral computes the second largest eigenvalue modulus (SLEM)
// μ of the random-walk transition matrix P and the Sinclair mixing-time
// bounds the paper uses in §III-C:
//
//	(μ/(1-μ))·log(1/2ε)  <=  T(ε)  <=  (log n + log(1/ε)) / (1-μ)
//
// P = D⁻¹A is similar to the symmetric N = D^(-1/2) A D^(-1/2), so its
// eigenvalues are real and can be extracted with power iteration on N.
// The top eigenvector of N is known in closed form (φ_v ∝ √deg(v), with
// eigenvalue 1 on a connected graph), so the SLEM is obtained by deflating
// φ and power-iterating; because eigenvalues may be negative, convergence
// targets |λ₂|, which is exactly the modulus the bound needs.
//
// Complexity: each power iteration is one sparse mat-vec, O(m), plus O(n)
// deflation and normalization; k iterations cost O(k·(m+n)). The mat-vec
// N x = D^(-1/2) A D^(-1/2) x is a pre-scaled gather: the iterate, dead
// once the mat-vec has read it, is first scaled in place to
// w = D^(-1/2) x, and then every row sums its neighbors' entries,
// y[v] = (Σ_{u∈N(v)} w[u]) / √deg v, one at a time in adjacency order
// (the loop unrolled four ways into one accumulator). Each term is the
// rounded product x[u]·(1/√deg u) a per-arc multiply would add, in the
// same order, so the result is the per-arc loop's bit for bit wherever
// the compiler does not fuse that multiply-add (Go fuses only explicit
// math.FMA on amd64); the per-arc loop lives on as the test oracle. The
// rows are partitioned across parallel workers in contiguous spans, so
// every row's sum is accumulated by exactly one worker in a fixed order
// and the iteration is bit-for-bit identical at any worker count.
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
// init. The iteration counter and residual gauge are written once per
// SLEM call — never inside the power iteration — so the mat-vec stays
// untouched and results are bit-identical with metrics enabled.
var (
	obsSLEMIterations = obs.Default().Counter("spectral.slem.iterations")
	obsSLEMConverged  = obs.Default().Counter("spectral.slem.converged")
	obsSLEMPartial    = obs.Default().Counter("spectral.slem.partial")
	obsSLEMResumed    = obs.Default().Counter("spectral.slem.resumed_iterations")
	obsSLEMWarm       = obs.Default().Counter("spectral.slem.warm_starts")
	obsSLEMWarmFallbk = obs.Default().Counter("spectral.slem.warm_fallbacks")
	obsSLEMResidual   = obs.Default().Gauge("spectral.slem.residual")
)

// Config controls the power iteration.
type Config struct {
	// Tolerance is the convergence threshold on successive eigenvalue
	// estimates. Defaults to 1e-10 when zero.
	Tolerance float64
	// MaxIterations bounds the iteration count. Defaults to 50000 when <= 0.
	MaxIterations int
	// Seed drives the random starting vector.
	Seed int64
	// Workers bounds the row-partitioned mat-vec parallelism; <= 0 uses
	// GOMAXPROCS. The SLEM is bit-for-bit identical at any worker count.
	Workers int
	// BestEffort salvages a deadline-hit run: when ctx is canceled or
	// times out mid-iteration, SLEMContext returns the current estimate
	// (Result.Partial true, Coverage < 1) instead of the context error,
	// as long as at least one iteration completed.
	BestEffort bool
	// Resume warm-starts the power iteration from a checkpoint taken by
	// an earlier (interrupted) run of the *same* graph and configuration.
	// The checkpointed vector is used verbatim — already deflated and
	// normalized — so the resumed trajectory is bit-identical to the
	// uninterrupted one.
	Resume *Checkpoint
	// Warm seeds the starting vector with an approximate eigenvector —
	// typically the previous epoch's, carried across a small topology
	// delta — instead of a random draw. Unlike Resume it is only a hint:
	// the vector is deflated against the current graph's φ and
	// re-normalized, the iteration count starts at zero, and convergence
	// is judged by the usual successive-estimate test, so the result
	// meets the same Tolerance as a cold start (eigenvalue error is
	// quadratic in eigenvector error, which is what makes a good warm
	// vector converge in a handful of iterations). A degenerate warm
	// vector (wrong length, or ~0 norm after deflation) falls back to
	// the seeded random start. Ignored when Resume is set.
	Warm []float64
	// KeepVector retains the final iterate on the Result so callers can
	// feed it back as the next epoch's Warm vector via Eigenvector().
	KeepVector bool
}

// Checkpoint is the resumable state of a power iteration: the iterate
// after Iterations completed steps (deflated, unit-norm) and the last
// eigenvalue estimate. It is only produced after at least one iteration,
// so Prev is always finite and the state survives a JSON round trip
// through internal/resilience's store bit-for-bit.
type Checkpoint struct {
	Vector     []float64 `json:"vector"`
	Prev       float64   `json:"prev"`
	Iterations int       `json:"iterations"`
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
	// Iterations is the number of power iterations performed, including
	// any resumed from a checkpoint.
	Iterations int
	// Converged reports whether successive estimates got within Tolerance
	// before MaxIterations.
	Converged bool
	// Partial reports that a best-effort run was cut short: SLEM is the
	// estimate after Iterations of the configured budget.
	Partial bool
	// Coverage is the fraction of the iteration budget spent — 1 on a
	// complete (converged or budget-exhausted) run, in (0, 1) on a
	// salvaged partial one.
	Coverage float64

	// vector and prev retain the iterate Checkpoint needs; set only on
	// partial results.
	vector []float64
	prev   float64
	// eigvec retains the final iterate when Config.KeepVector is set.
	eigvec []float64
}

// Checkpoint returns the resumable state of a partial result, or nil for
// a complete run (which has nothing left to resume).
func (r *Result) Checkpoint() *Checkpoint {
	if r.vector == nil {
		return nil
	}
	return &Checkpoint{Vector: r.vector, Prev: r.prev, Iterations: r.Iterations}
}

// Eigenvector returns the final power-iteration iterate — an
// approximation of the eigenvector behind the SLEM — when the run was
// configured with KeepVector, and nil otherwise. The slice is owned by
// the Result and must not be modified; copy it before reuse.
func (r *Result) Eigenvector() []float64 { return r.eigvec }

// SLEM computes the second largest eigenvalue modulus of the transition
// matrix of the simple random walk on g. It accepts any graph.View;
// because power iteration streams the whole adjacency per iteration,
// non-CSR views are materialized once up front (graph.Materialize, cached
// by the view) and the copy is amortized across all iterations.
func SLEM(v graph.View, cfg Config) (*Result, error) {
	return SLEMContext(context.Background(), v, cfg)
}

// SLEMContext is SLEM under a context: cancellation is honored between
// power iterations, and with cfg.BestEffort a deadline-hit run returns
// its current estimate as a resumable partial result instead of an
// error. Resuming from the checkpoint of an interrupted run continues
// the exact trajectory: the final estimate is bit-identical to the
// uninterrupted computation.
func SLEMContext(ctx context.Context, v graph.View, cfg Config) (*Result, error) {
	cfg.fill()
	ctx, span := obs.StartSpan(ctx, "spectral.slem")
	defer span.End()
	n := v.NumNodes()
	if n < 2 {
		return nil, fmt.Errorf("spectral: need >= 2 nodes, got %d", n)
	}
	if v.NumEdges() == 0 {
		return nil, errors.New("spectral: graph has no edges")
	}
	// The iteration needs aliased neighbor slices. A sharded substrate
	// already serves them shard by shard; anything else is materialized
	// once and the copy amortized across all iterations.
	var g graph.NeighborSlicer
	var csr *graph.Graph
	sg, sharded := graph.AsSharded(v)
	if sharded {
		g = sg
	} else {
		csr = graph.Materialize(v)
		g = csr
	}
	if !graph.IsConnected(g) {
		return nil, ErrNotConnected
	}

	// φ = sqrt(deg)/||sqrt(deg)||: the top eigenvector of N.
	phi := make([]float64, n)
	norm := 0.0
	for v := 0; v < n; v++ {
		phi[v] = math.Sqrt(float64(g.Degree(graph.NodeID(v))))
		norm += phi[v] * phi[v]
	}
	norm = math.Sqrt(norm)
	for v := range phi {
		phi[v] /= norm
	}

	// The iterate: a fresh seeded random vector deflated against φ, or —
	// when resuming — the checkpointed vector VERBATIM. The checkpoint
	// was taken after deflation and normalization; re-applying either
	// would perturb the floats and break bit-identical resume.
	x := make([]float64, n)
	startIt := 0
	prev := math.Inf(1)
	if cfg.Resume != nil {
		if len(cfg.Resume.Vector) != n {
			return nil, fmt.Errorf("spectral: resume checkpoint has %d entries, graph has %d nodes", len(cfg.Resume.Vector), n)
		}
		if cfg.Resume.Iterations < 1 || !(math.Abs(cfg.Resume.Prev) < math.Inf(1)) {
			return nil, fmt.Errorf("spectral: resume checkpoint is malformed (iterations %d, prev %v)", cfg.Resume.Iterations, cfg.Resume.Prev)
		}
		copy(x, cfg.Resume.Vector)
		startIt = cfg.Resume.Iterations
		prev = cfg.Resume.Prev
		obsSLEMResumed.Add(int64(startIt))
	} else {
		warmed := false
		if cfg.Warm != nil && len(cfg.Warm) == n {
			// A warm vector is a hint, not a trajectory: deflate against
			// the CURRENT graph's φ and re-normalize, then converge by the
			// ordinary tolerance test. Degeneracy is judged relative to
			// the incoming norm — a nearly-φ-parallel vector deflates to
			// pure rounding noise, which carries no second-eigenvector
			// signal and would start the iteration from garbage.
			copy(x, cfg.Warm)
			in := 0.0
			for _, e := range x {
				in += e * e
			}
			deflate(x, phi)
			if out := normalize(x); out > 1e-8*math.Sqrt(in) && out > 0 {
				warmed = true
				obsSLEMWarm.Inc()
			} else {
				obsSLEMWarmFallbk.Inc()
			}
		} else if cfg.Warm != nil {
			obsSLEMWarmFallbk.Inc()
		}
		if !warmed {
			rng := rand.New(rand.NewSource(cfg.Seed))
			for v := range x {
				x[v] = rng.NormFloat64()
			}
			deflate(x, phi)
			if normalize(x) == 0 {
				return nil, errors.New("spectral: degenerate starting vector")
			}
		}
	}

	y := make([]float64, n)
	invSqrtDeg := make([]float64, n)
	for v := 0; v < n; v++ {
		invSqrtDeg[v] = 1 / math.Sqrt(float64(g.Degree(graph.NodeID(v))))
	}

	// Row-partitioned y = N x, N_uv = 1/sqrt(deg u deg v) per edge, in
	// gather form: each span of rows is the only writer of its y rows,
	// and every row's neighbor sum is accumulated in adjacency order
	// whatever the partition — so the result is bit-for-bit identical at
	// any span or worker count. On a sharded substrate the spans are the
	// shards (their natural locality); otherwise the rows split into
	// equal spans. Below parallelThreshold rows the fan-out runs on one
	// worker: the per-iteration goroutine spawn would cost more than the
	// mat-vec, and the gather order (hence the result) is the same either
	// way.
	const parallelThreshold = 4096
	var spans []graph.Rows
	if sharded {
		for s := 0; s < sg.NumShards(); s++ {
			spans = append(spans, sg.Shard(s))
		}
	} else {
		rows := csr.Rows()
		blocks := parallel.Workers(cfg.Workers, n)
		if n < parallelThreshold {
			blocks = 1
		}
		blockSize := (n + blocks - 1) / blocks
		for lo := 0; lo < n; lo += blockSize {
			spans = append(spans, rows.Slice(graph.NodeID(lo), graph.NodeID(min(lo+blockSize, n))))
		}
	}
	workers := parallel.Workers(cfg.Workers, len(spans))
	if n < parallelThreshold {
		workers = 1
	}
	// The mat-vec runs in two fan-outs: scaleSpan turns the iterate into
	// w = D^(-1/2) x in place — x is dead once the mat-vec has read it —
	// and gatherSpan sums w over each row's neighbors.
	matVec := func(x, y []float64) {
		// ForEach with a background context cannot fail here: the only
		// error sources are fn errors and cancellation.
		_ = parallel.ForEach(context.Background(), workers, len(spans), func(_, b int) error {
			scaleSpan(spans[b], x, invSqrtDeg)
			return nil
		})
		_ = parallel.ForEach(context.Background(), workers, len(spans), func(_, b int) error {
			gatherSpan(spans[b], x, y, invSqrtDeg)
			return nil
		})
	}

	res := &Result{Iterations: startIt, Coverage: 1}
	resid := math.Inf(1)
	defer func() {
		obsSLEMIterations.Add(int64(res.Iterations - startIt))
		obsSLEMResidual.Set(resid)
		if res.Converged {
			obsSLEMConverged.Inc()
		}
	}()
	for it := startIt; it < cfg.MaxIterations; it++ {
		if err := ctx.Err(); err != nil {
			if !cfg.BestEffort || res.Iterations == 0 {
				return nil, fmt.Errorf("spectral: %w", err)
			}
			// Salvage the running estimate and the iterate so the caller
			// can checkpoint and later resume the exact trajectory.
			obsSLEMPartial.Inc()
			res.SLEM = prev
			res.Partial = true
			res.Coverage = float64(res.Iterations) / float64(cfg.MaxIterations)
			res.vector = append([]float64(nil), x...)
			res.prev = prev
			if cfg.KeepVector {
				res.eigvec = res.vector
			}
			return res, nil
		}
		res.Iterations = it + 1
		matVec(x, y)
		deflate(y, phi)
		lambda := normalize(y)
		x, y = y, x
		resid = math.Abs(lambda - prev)
		if resid < cfg.Tolerance {
			res.SLEM = lambda
			res.Converged = true
			if cfg.KeepVector {
				res.eigvec = append([]float64(nil), x...)
			}
			return res, nil
		}
		prev = lambda
	}
	res.SLEM = prev
	if cfg.KeepVector {
		res.eigvec = append([]float64(nil), x...)
	}
	return res, nil
}

// scaleSpan multiplies x[v] by invSqrtDeg[v] in place for every row v of
// rows.
func scaleSpan(rows graph.Rows, x, invSqrtDeg []float64) {
	lo, hi := rows.Range()
	for v := lo; v < hi; v++ {
		x[v] *= invSqrtDeg[v]
	}
}

// gatherSpan writes y[v] = (Σ_{u∈N(v)} w[u]) · invSqrtDeg[v] for every
// row v of rows, where w is the iterate scaleSpan pre-scaled. The neighbor
// loop is unrolled four ways into one accumulator, so the terms are
// still added one at a time in adjacency order (the package comment says
// why that reproduces the per-arc loop's bits).
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

// deflate removes the component of x along the unit vector phi.
func deflate(x, phi []float64) {
	dot := 0.0
	for i := range x {
		dot += x[i] * phi[i]
	}
	for i := range x {
		x[i] -= dot * phi[i]
	}
}

// normalize scales x to unit 2-norm and returns the previous norm.
func normalize(x []float64) float64 {
	norm := 0.0
	for _, v := range x {
		norm += v * v
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
