package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"time"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/incremental"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/kcore"
	"github.com/trustnet/trustnet/internal/obs"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/trustnetd"
)

// The epochs workload runs the incremental engine over the clustered
// 10⁴-node graph of the repository's epoch sweep, under the sweep's
// drifting fault schedule, with 1,024 envelope sources.
const (
	epochCommunities   = 50
	epochCommunitySize = 200
	epochAttach        = 8
	epochBridges       = 4
	epochGraphSeed     = 97
	epochSources       = 1024
	// epochSubWindow is the number of epochs in one sub-window. The
	// pinned schedule puts its heavy epochs in the same sub-windows every
	// run, so a sub-window's rate ranges 4–30 epochs/s and a median of
	// them would fall in the gap between the two groups; the window is
	// pooled instead.
	epochSubWindow = 10
	// epochSetupRepeats is how many times an untraced run sets up.
	epochSetupRepeats = 3
	// epochFaultSeed, epochSourceSeed and epochSLEMSeed pin every input
	// of the workload, so the workload seed changes nothing on epochs.
	// Each seeded input moved the cost more than a run's own noise does.
	// A 100-epoch window's cost is dominated by a few rare epochs (a lost
	// bridge edge re-levels whole communities for many sources): the
	// windows of different schedules differed 2x in time, and different
	// source sets moved CPU per epoch by 18%. The SLEM start vector set
	// the set-up's cold power iteration at epoch 0 anywhere from 4,400 to
	// 7,700 iterations, and set-up time with it.
	epochFaultSeed  = 1
	epochSourceSeed = 1
	epochSLEMSeed   = 1
	// epochSLEMTolerance is the engine's power-iteration tolerance.
	epochSLEMTolerance = 1e-8
	// slemAgreement bounds |μ_warm − μ_cold|. Two runs that each stop
	// when successive estimates differ by 1e-8 can land this far apart
	// on a slow-mixing community graph, whose contraction ratio is close
	// to one; the repository's incremental benchmark uses the same band.
	slemAgreement = 1e-4
)

// epochGraph is the pristine graph the fault model degrades.
func epochGraph() (*graph.Graph, error) {
	g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{Communities: epochCommunities,
		CommunitySize: epochCommunitySize, Attach: epochAttach, Bridges: epochBridges, Seed: epochGraphSeed})
	return g, err
}

// epochFaults is the drifting fault schedule of the run.
func epochFaults(seed int64) faults.Config {
	return faults.Config{Churn: 0.1, EdgeLoss: 0.05, Drift: 0.005, Seed: seed}
}

// epochSample is the engine's state at one sampled epoch, kept for the
// comparison with a from-scratch measurement.
type epochSample struct {
	cores      []int
	levels     uint64
	expFP      string
	slem       float64
	degeneracy int
}

// checkEpoch checks one epoch measurement for internal consistency.
func checkEpoch(m *incremental.EpochMeasurement, epoch int) error {
	switch {
	case m.Epoch != epoch:
		return fmt.Errorf("epoch %d: engine measured epoch %d", epoch, m.Epoch)
	case m.Expansion == nil || m.Expansion.Partial || m.Expansion.Sources != epochSources:
		return fmt.Errorf("epoch %d: incomplete expansion envelope", epoch)
	case m.SLEM == nil || !m.SLEM.Converged || !(m.SLEM.SLEM > 0 && m.SLEM.SLEM < 1):
		return fmt.Errorf("epoch %d: SLEM did not converge inside (0, 1)", epoch)
	case m.Degeneracy < 1 || m.ComponentSize < 2:
		return fmt.Errorf("epoch %d: degenerate measurement (degeneracy %d, component %d)", epoch, m.Degeneracy, m.ComponentSize)
	}
	return nil
}

// levelsDigest folds BFS level sequences into one FNV-1a word.
func levelsDigest(levels [][]int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, ls := range levels {
		binary.LittleEndian.PutUint64(b[:], uint64(len(ls)))
		h.Write(b[:])
		for _, v := range ls {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// sampledEpochs picks the epochs of an n-epoch window checked against a
// from-scratch measurement: the first and the last.
func sampledEpochs(n int) map[int]bool {
	return map[int]bool{1: true, n: true}
}

// epochsRun is what runEpochs measured.
type epochsRun struct {
	setups []setupTime
	win    windowStats
	spans  []spanRecord
	extra  map[string][]float64
	checks tally
}

// runEpochs runs the epochs workload in process. A set-up builds the
// fault model and the engine and measures epoch 0 as the warm-up. An
// untraced run sets up epochSetupRepeats times and times n epochs on the last
// engine. A traced run sets up once, traces alternating pairs of epochs
// and records the engine state at the sampled epochs, then replays the
// schedule on a twin model to check those epochs and probe the layers.
func runEpochs(ctx context.Context, e *benchEnv) (*epochsRun, error) {
	g, err := epochGraph()
	if err != nil {
		return nil, err
	}
	sources, err := expansion.SampledSources(g, epochSources, streamSeed(epochSourceSeed, 3))
	if err != nil {
		return nil, err
	}
	fcfg := epochFaults(epochFaultSeed)
	ecfg := incremental.EngineConfig{Sources: sources, Spectral: spectral.Config{Tolerance: epochSLEMTolerance, Seed: epochSLEMSeed}}
	out := &epochsRun{}

	repeats := epochSetupRepeats
	if e.trace {
		repeats = 1
	}
	var en *incremental.Engine
	for k := 0; k < repeats; k++ {
		// Only one engine may be alive at a time, or peak RSS would
		// depend on when the collector happened to run.
		en = nil
		runtime.GC()
		st, err := timeSetup(e.steal, func() error {
			m, err := faults.New(g, fcfg)
			if err != nil {
				return err
			}
			if en, err = incremental.NewEngine(m, ecfg); err != nil {
				return err
			}
			meas, err := en.Measure(ctx)
			if err != nil {
				return err
			}
			return checkEpoch(meas, 0)
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.setups = append(out.setups, st)
	}
	if !e.trace {
		out.win, err = epochWindow(ctx, en, e.steal, noTracer, e.ops, nil)
		return out, err
	}

	tr := newTracer(true)
	samples := make(map[int]*epochSample)
	out.win, err = epochWindow(ctx, en, e.steal, func(i int) *tracer {
		if tracedOp(i) {
			return tr
		}
		return nil
	}, e.ops, samples)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.stateRoot, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := newProber(tr, dir, &out.checks)
	if err := replayEpochs(ctx, p, g, fcfg, ecfg, e.ops, samples); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	out.spans = tr.records()
	out.extra = p.extra
	return out, nil
}

// epochWindow times n epochs (Advance then Measure) on en. The CPU and
// peak RSS are this process's; the counters are the window diff of
// obs.Default(). With samples non-nil it records the engine state at the
// sampled epochs, inside the window but outside the ops' time.
func epochWindow(ctx context.Context, en *incremental.Engine, steal *stealClock, tracerFor func(int) *tracer, n int, samples map[int]*epochSample) (windowStats, error) {
	c0 := obs.Default().Snapshot().Counters
	sub, err := newSubWindows(epochSubWindow, selfCPU, steal)
	if err != nil {
		return windowStats{}, err
	}
	sampled := sampledEpochs(n)
	w := windowStats{ops: n, lat: make([]float64, n), pooled: true}
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return windowStats{}, err
		}
		epoch := i + 1
		tr := tracerFor(i)
		sp := tr.start(i, 0, "op")
		t := time.Now()
		var meas *incremental.EpochMeasurement
		err := stage(tr, i, sp.id, "incremental.advance", func() error { en.Advance(); return nil })
		if err == nil {
			err = stage(tr, i, sp.id, "incremental.measure", func() (err error) {
				meas, err = en.Measure(ctx)
				return err
			})
		}
		w.lat[i] = time.Since(t).Seconds()
		sp.end()
		sub.complete()
		if err == nil {
			err = checkEpoch(meas, epoch)
		}
		if err != nil {
			w.tally.fail(err)
			continue
		}
		w.tally.ok()
		if samples != nil && sampled[epoch] {
			samples[epoch] = &epochSample{
				cores:      append([]int(nil), en.Cores()...),
				levels:     levelsDigest(meas.Expansion.Checkpoint().Levels),
				expFP:      jobs.ExpansionFingerprint(meas.Expansion),
				slem:       meas.SLEM.SLEM,
				degeneracy: meas.Degeneracy,
			}
		}
	}
	if err := sub.fill(&w); err != nil {
		return windowStats{}, err
	}
	if w.rssMB, err = procPeakRSSMB("self"); err != nil {
		return windowStats{}, err
	}
	w.counters = diffCounters(obs.Default().Snapshot().Counters, c0)
	return w, nil
}

// stage runs fn as a child span of an op; traced stages also record
// their allocation, untraced ones cost nothing extra.
func stage(tr *tracer, op int, parent int64, name string, fn func() error) error {
	if !tr.enabled() {
		return fn()
	}
	_, err := timedCall(tr, op, parent, name, fn)
	return err
}

// replayEpochs replays the window's schedule on a twin fault model with
// the same configuration, timing each AdvanceEpochDelta. At every
// sampled epoch it checks the engine's recorded state against
// incremental.MeasureFull and kcore.Decompose on the twin's view — cores
// and envelope levels bit-identical, SLEM within slemAgreement — and on
// the last epoch it times the layers' public functions on the view.
func replayEpochs(ctx context.Context, p *prober, g *graph.Graph, fcfg faults.Config, ecfg incremental.EngineConfig, n int, samples map[int]*epochSample) error {
	mg, err := p.ingest(-1, graphStream{g}, graph.Fingerprint(g))
	if err != nil {
		return err
	}
	mg.Close()
	twin, err := faults.New(g, fcfg)
	if err != nil {
		return err
	}
	var d *faults.EpochDelta
	for epoch := 1; epoch <= n; epoch++ {
		p.call(epoch-1, "faults.advance_delta", func() error { d = twin.AdvanceEpochDelta(d); return nil })
		p.extra["faults.delta_elems"] = append(p.extra["faults.delta_elems"],
			float64(len(d.NodesDown)+len(d.NodesUp)+len(d.EdgesLost)+len(d.EdgesGained)))
		s, ok := samples[epoch]
		if !ok {
			continue
		}
		view := twin.View()
		var full *incremental.EpochMeasurement
		if _, err := p.call(epoch-1, "incremental.measure_full", func() (err error) {
			full, err = incremental.MeasureFull(ctx, view, ecfg)
			return err
		}); err != nil {
			return err
		}
		var dec *kcore.Decomposition
		if _, err := p.call(epoch-1, "kcore.decompose", func() (err error) {
			dec, err = kcore.Decompose(view)
			return err
		}); err != nil {
			return err
		}
		p.tally.check(compareEpoch(epoch, s, full, dec))
		if epoch != n {
			continue
		}
		cfg := trustnetd.MeasureConfig{Seed: ecfg.Spectral.Seed, Sources: 16, MaxSteps: 30, Tolerance: epochSLEMTolerance}
		if err := p.layers(ctx, epoch-1, view, cfg, ecfg.Sources); err != nil {
			return err
		}
	}
	return nil
}

// compareEpoch compares the engine's state at one epoch with the
// from-scratch measurement of the same epoch.
func compareEpoch(epoch int, s *epochSample, full *incremental.EpochMeasurement, dec *kcore.Decomposition) error {
	want := dec.CorenessValues()
	if len(want) != len(s.cores) {
		return fmt.Errorf("epoch %d: %d maintained cores, want %d", epoch, len(s.cores), len(want))
	}
	for v := range want {
		if want[v] != s.cores[v] {
			return fmt.Errorf("epoch %d: node %d maintained coreness %d, from scratch %d", epoch, v, s.cores[v], want[v])
		}
	}
	if full.Degeneracy != s.degeneracy {
		return fmt.Errorf("epoch %d: degeneracy %d, from scratch %d", epoch, s.degeneracy, full.Degeneracy)
	}
	if lv := levelsDigest(full.Expansion.Checkpoint().Levels); lv != s.levels || jobs.ExpansionFingerprint(full.Expansion) != s.expFP {
		return fmt.Errorf("epoch %d: envelope levels differ from the from-scratch measurement", epoch)
	}
	if diff := math.Abs(full.SLEM.SLEM - s.slem); diff > slemAgreement {
		return fmt.Errorf("epoch %d: warm SLEM %.9f, cold %.9f (|Δ| %.2g > %.0e)", epoch, s.slem, full.SLEM.SLEM, diff, slemAgreement)
	}
	return nil
}

// layers times the measurement layers on an epoch's view: mixing,
// expansion over the engine's sources, cold SLEM on the largest
// component, the canonical fingerprint, and the batched kernels.
func (p *prober) layers(ctx context.Context, op int, view graph.View, cfg trustnetd.MeasureConfig, sources []graph.NodeID) error {
	if _, err := p.mixing(ctx, op, view, cfg); err != nil {
		return err
	}
	if _, err := p.call(op, "expansion.measure", func() error {
		_, err := expansion.Measure(ctx, view, expansion.Config{Sources: sources})
		return err
	}); err != nil {
		return err
	}
	comp, _ := graph.LargestComponentView(view)
	var sl *spectral.Result
	d, err := p.call(op, "spectral.slem", func() (err error) {
		sl, err = spectral.SLEMContext(ctx, comp, spectral.Config{Tolerance: cfg.Tolerance, Seed: cfg.Seed})
		return err
	})
	if err != nil {
		return err
	}
	if sl.Iterations > 0 {
		p.extra["spectral.iteration_s"] = append(p.extra["spectral.iteration_s"], d.Seconds()/float64(sl.Iterations))
	}
	p.call(op, "graph.fingerprint", func() error { graph.Fingerprint(view); return nil })
	return p.kernels(op, view, cfg)
}
