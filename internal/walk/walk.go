// Package walk implements the random-walk machinery of §III-C of the
// paper: exact evolution of the walk distribution p ← pP over the simple
// random walk (Eq. 1), the total variation distance to the stationary
// distribution, and the sampling method for measuring the mixing time
// T(ε) (Eq. 2) from many sampled sources. It also provides the discrete
// random-walk trajectories that the Sybil defenses (SybilGuard, SybilLimit,
// GateKeeper, ...) are built on.
//
// Complexity: one exact walk step is O(m); measuring Eq. 2 over k sampled
// sources for T steps is O(k·T·m) total. The sources fan out in blocks of
// kernels.DefaultBlockWidth over the blocked propagation kernel
// (kernels.WalkBlock), which streams the adjacency once per step for a
// whole block instead of once per source, for O(k·T·m/(workers·B))
// adjacency scans. Results are bit-for-bit independent of the worker
// count: each source's curve is a pure function of the graph (blocked
// columns receive the same additions in the same order as a per-source
// Distribution), and curves are folded in source order.
package walk

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/kernels"
	"github.com/trustnet/trustnet/internal/obs"
	"github.com/trustnet/trustnet/internal/parallel"
)

// Observability instruments for the mixing measurement, resolved once so
// the per-curve bookkeeping is a handful of atomic adds — never a map
// lookup or allocation on the measurement path. Counting happens per
// source curve / per block, not per walk step, so the walk inner loops
// are untouched and stay bit-identical with metrics enabled.
var (
	obsMixSteps        = obs.Default().Counter("walk.mixing.steps")
	obsMixKernelBlocks = obs.Default().Counter("walk.mixing.kernel_blocks")
	obsMixHandovers    = obs.Default().Counter("walk.mixing.sparse_to_dense")
	obsMixPartial      = obs.Default().Counter("walk.mixing.partial")
	obsMixResumed      = obs.Default().Counter("walk.mixing.resumed_sources")
)

// ErrNoEdges is returned when the random walk is undefined because the
// graph has no edges.
var ErrNoEdges = errors.New("walk: graph has no edges")

// TotalVariation returns ||p - q||_TV = ½ Σ|p_i - q_i| for equal-length
// distributions.
func TotalVariation(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("walk: total variation length mismatch %d vs %d", len(p), len(q))
	}
	sum := 0.0
	for i := range p {
		sum += math.Abs(p[i] - q[i])
	}
	return sum / 2, nil
}

// Distribution tracks the exact probability distribution of a random walk
// as it evolves. A Distribution is bound to one graph; Step costs O(m).
// Distributions are not safe for concurrent use; create one per goroutine.
type Distribution struct {
	v    graph.View
	nbr  *graph.Adj
	n    int
	cur  []float64
	next []float64
	// Lazy selects the lazy walk P' = (I+P)/2, which is aperiodic on every
	// connected graph (the plain walk is periodic on bipartite graphs and
	// then never converges).
	lazy bool
	step int
	// support lists the nodes with (possibly) nonzero mass in cur, in
	// ascending order; every other cur entry is exactly zero. nil means
	// the walk has spread past half the graph and Step uses the dense
	// scan for the rest of the distribution's life.
	support []graph.NodeID
	// stale lists the entries of next still holding mass from two steps
	// ago — the only entries Step must zero on the sparse path, instead
	// of the unconditional O(n) clear.
	stale []graph.NodeID
	// mark is the first-touch scratch for building the next support list.
	mark []bool
}

// NewDistribution returns the distribution concentrated at source. It
// accepts any graph.View; on zero-copy views the walk evolves directly
// over the masked adjacency without materializing a copy.
func NewDistribution(g graph.View, source graph.NodeID, lazy bool) (*Distribution, error) {
	if g.NumEdges() == 0 {
		return nil, ErrNoEdges
	}
	if !g.Valid(source) {
		return nil, fmt.Errorf("walk: source %d out of range", source)
	}
	if g.Degree(source) == 0 {
		return nil, fmt.Errorf("walk: source %d is isolated", source)
	}
	d := &Distribution{
		v:       g,
		nbr:     graph.NewAdj(g),
		n:       g.NumNodes(),
		cur:     make([]float64, g.NumNodes()),
		next:    make([]float64, g.NumNodes()),
		lazy:    lazy,
		support: []graph.NodeID{source},
		mark:    make([]bool, g.NumNodes()),
	}
	d.cur[source] = 1
	return d, nil
}

// Step advances the distribution one walk step: p ← pP (or p ← p(I+P)/2
// for the lazy walk). While the walk's support is small, only the touched
// entries of the scratch buffer are zeroed and only support nodes are
// propagated, so a step on a slow-spreading walk costs O(edges incident
// to the support) instead of O(n+m); the propagation order (ascending
// node, CSR neighbor order) and hence every floating-point result is
// bit-identical to the dense scan.
func (d *Distribution) Step() {
	if d.support == nil {
		d.stepDense()
	} else {
		d.stepSparse()
	}
	d.cur, d.next = d.next, d.cur
	d.step++
}

func (d *Distribution) stepDense() {
	for i := range d.next {
		d.next[i] = 0
	}
	for v := graph.NodeID(0); int(v) < d.n; v++ {
		mass := d.cur[v]
		if mass == 0 {
			continue
		}
		ns := d.nbr.Neighbors(v)
		if len(ns) == 0 {
			d.next[v] += mass // isolated nodes hold their (zero-by-construction) mass
			continue
		}
		if d.lazy {
			d.next[v] += mass / 2
			mass /= 2
		}
		share := mass / float64(len(ns))
		for _, u := range ns {
			d.next[u] += share
		}
	}
}

func (d *Distribution) stepSparse() {
	for _, v := range d.stale {
		d.next[v] = 0
	}
	// stale's contents are consumed; its backing array becomes the new
	// support list built from first touches below.
	touched := d.stale[:0]
	for _, v := range d.support {
		mass := d.cur[v]
		if mass == 0 {
			continue
		}
		ns := d.nbr.Neighbors(v)
		if len(ns) == 0 {
			d.next[v] += mass
			if !d.mark[v] {
				d.mark[v] = true
				touched = append(touched, v)
			}
			continue
		}
		if d.lazy {
			d.next[v] += mass / 2
			mass /= 2
			if !d.mark[v] {
				d.mark[v] = true
				touched = append(touched, v)
			}
		}
		share := mass / float64(len(ns))
		for _, u := range ns {
			d.next[u] += share
			if !d.mark[u] {
				d.mark[u] = true
				touched = append(touched, u)
			}
		}
	}
	// The next step iterates this list as its support, so it must be
	// ascending for the addition order to keep matching the dense scan.
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	for _, v := range touched {
		d.mark[v] = false
	}
	d.stale = d.support
	d.support = touched
	if len(touched) > d.n/2 {
		// The support rarely shrinks below half once the walk has spread
		// this far; the dense scan's straight-line clear is cheaper than
		// list upkeep from here on.
		d.support = nil
		d.stale = nil
	}
}

// StepCount returns the number of steps taken so far.
func (d *Distribution) StepCount() int { return d.step }

// Probabilities returns the current distribution. The slice aliases
// internal state and is only valid until the next Step.
func (d *Distribution) Probabilities() []float64 { return d.cur }

// DistanceTo returns the total variation distance from the current
// distribution to target.
func (d *Distribution) DistanceTo(target []float64) (float64, error) {
	return TotalVariation(d.cur, target)
}

// MixingConfig parameterizes the sampling-method mixing measurement.
type MixingConfig struct {
	// MaxSteps bounds the walk length explored (the x-axis of Figure 1).
	MaxSteps int
	// Sources is the number of sampled walk sources; the paper samples
	// 1000 sources on its graphs, scaled-down graphs need fewer.
	Sources int
	// Lazy selects the lazy walk. The paper's graphs are non-bipartite so
	// it measures the plain walk; tests on bipartite structures need lazy.
	Lazy bool
	// Seed drives source sampling.
	Seed int64
	// Workers sets how many sources are measured concurrently; defaults
	// to GOMAXPROCS when <= 0. Results are deterministic regardless of
	// worker count because each source's curve is independent.
	Workers int
	// BestEffort salvages a deadline-hit measurement: when ctx is
	// canceled or times out mid-run, MeasureMixing returns the curves of
	// the sources completed so far (Result.Partial true, Coverage < 1)
	// instead of the context error, as long as at least one source
	// finished. The salvage unit is a block of kernels.DefaultBlockWidth
	// sources: a block the deadline cuts mid-walk contributes nothing.
	// Each completed curve is bit-identical to what the uninterrupted run
	// would have produced, so partial results compose with Resume into
	// exact continuations.
	BestEffort bool
	// Resume seeds the measurement with curves completed by an earlier
	// (interrupted) run of the *same* configuration: sources whose
	// checkpoint curve is non-nil are not re-measured. The checkpoint's
	// source list must match this run's sampled sources exactly —
	// anything else is stale state and an error.
	Resume *MixingCheckpoint
}

func (c MixingConfig) validate() error {
	if c.MaxSteps < 1 {
		return fmt.Errorf("walk: MaxSteps must be >= 1, got %d", c.MaxSteps)
	}
	if c.Sources < 1 {
		return fmt.Errorf("walk: Sources must be >= 1, got %d", c.Sources)
	}
	return nil
}

// MixingCheckpoint is the resumable progress of a mixing measurement:
// the sampled sources and, per source, the completed TVD curve (nil for
// sources not yet measured). Because each curve is a pure function of
// (graph, source, config), merging a checkpoint into a resumed run
// reproduces the uninterrupted measurement bit-for-bit. The JSON
// encoding round-trips float64 exactly, so a checkpoint that passed
// through internal/resilience's store resumes losslessly.
type MixingCheckpoint struct {
	Sources []graph.NodeID `json:"sources"`
	Curves  [][]float64    `json:"curves"`
}

// matches reports whether the checkpoint belongs to a measurement with
// these sources and step budget.
func (c *MixingCheckpoint) matches(sources []graph.NodeID, maxSteps int) bool {
	if len(c.Sources) != len(sources) || len(c.Curves) != len(sources) {
		return false
	}
	for i, s := range c.Sources {
		if s != sources[i] {
			return false
		}
	}
	for _, curve := range c.Curves {
		if curve != nil && len(curve) != maxSteps {
			return false
		}
	}
	return true
}

// MixingResult is the outcome of the sampling-method measurement.
type MixingResult struct {
	// MeanTVD[t] is the mean total variation distance to stationarity
	// after t+1 steps, averaged over sources — one Figure 1 curve.
	MeanTVD []float64
	// MaxTVD[t] is the worst (max over sources) distance, matching the
	// max_i in Eq. 2 restricted to the sampled sources.
	MaxTVD []float64
	// MinTVD[t] is the best source's distance.
	MinTVD []float64
	// Sources records the sampled source nodes.
	Sources []graph.NodeID
	// Curves[i] is source i's full TVD trajectory — retained because the
	// paper's methodology (§III-C) is precisely to look at the
	// *distribution* of mixing across sources, not only the worst case
	// the eigenvalue bound captures. In a partial (best-effort) result,
	// sources the deadline cut off have a nil curve and are excluded
	// from every aggregate.
	Curves [][]float64
	// Completed counts the sources with a finished curve; it equals
	// len(Sources) on a complete run.
	Completed int
	// Partial reports that a best-effort run was cut short: the
	// aggregates cover only Completed of len(Sources) sources.
	Partial bool
}

// Coverage is the fraction of sampled sources with a completed curve —
// 1 for a complete measurement, in (0, 1) for a salvaged partial one.
func (r *MixingResult) Coverage() float64 {
	if len(r.Sources) == 0 {
		return 0
	}
	return float64(r.Completed) / float64(len(r.Sources))
}

// Checkpoint returns the result's resumable state. The checkpoint
// aliases the result's Sources and Curves slices — serialize it before
// mutating the result.
func (r *MixingResult) Checkpoint() *MixingCheckpoint {
	return &MixingCheckpoint{Sources: r.Sources, Curves: r.Curves}
}

// SourceMixingTimes returns, for each sampled source, the smallest walk
// length t (1-based) at which that source's TVD drops below eps, or 0 if
// it never does within the budget. The spread of these values is the
// "richer patterns of mixing" the paper samples for.
func (r *MixingResult) SourceMixingTimes(eps float64) []int {
	out := make([]int, len(r.Curves))
	for i, curve := range r.Curves {
		for t, d := range curve {
			if d < eps {
				out[i] = t + 1
				break
			}
		}
	}
	return out
}

// MixingTime returns the smallest walk length t (1-based) at which the
// worst sampled source is within eps of stationarity, or (0, false) if
// that never happens within MaxSteps.
func (r *MixingResult) MixingTime(eps float64) (int, bool) {
	for t, d := range r.MaxTVD {
		if d < eps {
			return t + 1, true
		}
	}
	return 0, false
}

// MeanMixingTime is MixingTime for the source-averaged curve, reflecting
// the "richer patterns of mixing" view the paper advocates over the
// worst-case eigenvalue bound.
func (r *MixingResult) MeanMixingTime(eps float64) (int, bool) {
	for t, d := range r.MeanTVD {
		if d < eps {
			return t + 1, true
		}
	}
	return 0, false
}

// MeasureMixing runs the sampling method of §III-C: it samples cfg.Sources
// walk sources uniformly (without replacement when possible), evolves the
// exact walk distribution from each, and aggregates the TVD-to-stationarity
// trajectory across sources. Cancellation of ctx is honored between walk
// steps, so a caller's timeout bounds even slow-mixing measurements.
//
// It accepts any graph.View. A non-CSR view is materialized once
// (graph.Materialize, cached by the view) and the copy is amortized
// across all sources and steps. Results are bit-identical either way.
func MeasureMixing(ctx context.Context, g graph.View, cfg MixingConfig) (*MixingResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if g.NumEdges() == 0 {
		return nil, ErrNoEdges
	}
	ctx, span := obs.StartSpan(ctx, "walk.mixing")
	defer span.End()
	pi, err := graph.Stationary(g)
	if err != nil {
		return nil, fmt.Errorf("measure mixing: %w", err)
	}
	sources, err := SampleSources(g, cfg.Sources, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("measure mixing: %w", err)
	}
	res := &MixingResult{
		MeanTVD: make([]float64, cfg.MaxSteps),
		MaxTVD:  make([]float64, cfg.MaxSteps),
		MinTVD:  make([]float64, cfg.MaxSteps),
		Sources: sources,
	}
	for t := range res.MinTVD {
		res.MinTVD[t] = math.Inf(1)
	}

	// curves[i] belongs to sources[i]; resumed curves are merged up
	// front and todo holds the indices still to measure. Each worker
	// task owns distinct curve slots, and parallel.ForEach joins every
	// worker before returning, so the post-fan-out read is race-free
	// even when a deadline stops the run mid-flight.
	curves := make([][]float64, len(sources))
	if cfg.Resume != nil {
		if !cfg.Resume.matches(sources, cfg.MaxSteps) {
			return nil, fmt.Errorf("measure mixing: resume checkpoint does not match this configuration (sources or step budget differ)")
		}
		copy(curves, cfg.Resume.Curves)
		for _, c := range curves {
			if c != nil {
				obsMixResumed.Inc()
			}
		}
	}
	todo := make([]int, 0, len(sources))
	for i, c := range curves {
		if c == nil {
			todo = append(todo, i)
		}
	}

	// One worker task per block of sources, each with its own propagation
	// buffers; the fold below runs in source order so the aggregate is
	// bit-for-bit identical at any worker count.
	var runErr error
	if len(todo) > 0 {
		todoSources := make([]graph.NodeID, len(todo))
		for k, i := range todo {
			todoSources[k] = sources[i]
		}
		blocks := parallel.Blocks(len(todo), kernels.DefaultBlockWidth)
		obsMixKernelBlocks.Add(int64(len(blocks)))
		cg := graph.Materialize(g)
		runErr = parallel.ForEach(ctx, cfg.Workers, len(blocks), func(_, b int) error {
			part, err := blockCurves(ctx, cg, todoSources[blocks[b].Start:blocks[b].End], pi, cfg)
			if err != nil {
				return err
			}
			for j, curve := range part {
				curves[todo[blocks[b].Start+j]] = curve
			}
			return nil
		})
	}
	if runErr != nil {
		if !cfg.BestEffort || !isInterrupt(runErr) {
			return nil, fmt.Errorf("measure mixing: %w", runErr)
		}
		// Deadline or cancellation in best-effort mode: salvage whatever
		// completed. Zero coverage has nothing to salvage.
		obsMixPartial.Inc()
		res.Partial = true
	}
	for _, curve := range curves {
		if curve == nil {
			continue
		}
		res.Completed++
		for t, tvd := range curve {
			res.MeanTVD[t] += tvd
			if tvd > res.MaxTVD[t] {
				res.MaxTVD[t] = tvd
			}
			if tvd < res.MinTVD[t] {
				res.MinTVD[t] = tvd
			}
		}
	}
	if res.Completed == 0 {
		if runErr != nil {
			return nil, fmt.Errorf("measure mixing: %w", runErr)
		}
		return nil, fmt.Errorf("measure mixing: no sources measured")
	}
	for t := range res.MeanTVD {
		res.MeanTVD[t] /= float64(res.Completed)
	}
	res.Curves = curves
	return res, nil
}

// isInterrupt reports whether err is a context cancellation or deadline
// — the two failure classes best-effort mode may salvage a partial
// result from.
func isInterrupt(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// blockCurves evolves one block of sources through the blocked
// propagation kernel and returns their TVD trajectories, checking for
// cancellation between steps.
func blockCurves(ctx context.Context, g *graph.Graph, sources []graph.NodeID, pi []float64, cfg MixingConfig) ([][]float64, error) {
	wb, err := kernels.NewWalkBlock(g, sources, cfg.Lazy)
	if err != nil {
		return nil, fmt.Errorf("sources %v: %w", sources, err)
	}
	curves := make([][]float64, len(sources))
	for i := range curves {
		curves[i] = make([]float64, cfg.MaxSteps)
	}
	dist := make([]float64, len(sources))
	for t := 0; t < cfg.MaxSteps; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		wb.Step()
		if err := wb.DistancesTo(pi, dist); err != nil {
			return nil, err
		}
		for i, tvd := range dist {
			curves[i][t] = tvd
		}
	}
	obsMixSteps.Add(int64(wb.StepCount()) * int64(len(sources)))
	if wb.Dense() {
		obsMixHandovers.Inc()
	}
	return curves, nil
}

// SampleSources draws k distinct non-isolated nodes uniformly at random,
// or all of them if the graph has fewer than k. It is a thin wrapper over
// graph.SampleNodes, the seeded sampler shared with the expansion
// measurement; walk sources must be non-isolated because the walk is
// undefined on a degree-0 node.
func SampleSources(g graph.View, k int, seed int64) ([]graph.NodeID, error) {
	out, err := graph.SampleNodes(g, k, seed, true)
	if errors.Is(err, graph.ErrNoCandidates) {
		return nil, ErrNoEdges
	}
	if err != nil {
		return nil, fmt.Errorf("walk: %w", err)
	}
	return out, nil
}

// Walker generates discrete random-walk trajectories. It is the primitive
// the Sybil defenses use for their random routes. Walkers are not safe for
// concurrent use; create one per goroutine.
type Walker struct {
	g   graph.View
	nbr *graph.Adj
	rng *rand.Rand
}

// NewWalker returns a walker over g seeded deterministically.
func NewWalker(g graph.View, seed int64) *Walker {
	return &Walker{g: g, nbr: graph.NewAdj(g), rng: rand.New(rand.NewSource(seed))}
}

// Walk returns a trajectory of `length` steps starting at start (the
// returned slice has length+1 nodes, starting with start). Walking from an
// isolated node or an invalid start is an error.
func (w *Walker) Walk(start graph.NodeID, length int) ([]graph.NodeID, error) {
	if !w.g.Valid(start) {
		return nil, fmt.Errorf("walk: start %d out of range", start)
	}
	if length < 0 {
		return nil, fmt.Errorf("walk: negative length %d", length)
	}
	out := make([]graph.NodeID, 0, length+1)
	out = append(out, start)
	cur := start
	for i := 0; i < length; i++ {
		ns := w.nbr.Neighbors(cur)
		if len(ns) == 0 {
			return nil, fmt.Errorf("walk: node %d is isolated at step %d", cur, i)
		}
		cur = ns[w.rng.Intn(len(ns))]
		out = append(out, cur)
	}
	return out, nil
}

// Endpoint returns only the final node of a `length`-step walk from start,
// avoiding the trajectory allocation.
func (w *Walker) Endpoint(start graph.NodeID, length int) (graph.NodeID, error) {
	if !w.g.Valid(start) {
		return 0, fmt.Errorf("walk: start %d out of range", start)
	}
	cur := start
	for i := 0; i < length; i++ {
		ns := w.nbr.Neighbors(cur)
		if len(ns) == 0 {
			return 0, fmt.Errorf("walk: node %d is isolated at step %d", cur, i)
		}
		cur = ns[w.rng.Intn(len(ns))]
	}
	return cur, nil
}
