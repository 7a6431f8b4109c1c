package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/trustnetd"
)

// serviceWorkload is a workload served by a trustnetd child.
type serviceWorkload interface {
	// prepare makes the inputs and their expected fingerprints; it runs
	// once, before the daemon starts and outside setup_s.
	prepare(ctx context.Context) error
	// numOps is the number of timed ops.
	numOps() int
	// subSize is the number of ops in one sub-window.
	subSize() int
	// setupRepeats is how many times an untraced run sets up: setup_s
	// is the median, and the last set-up serves the timed window.
	setupRepeats() int
	// setup brings a fresh daemon to the state the ops expect.
	setup(ctx context.Context, s *session) error
	// op runs timed op i and returns the check of its outputs.
	op(ctx context.Context, s *session, i int, parent int64) (func() error, error)
	// probe makes the traced run's in-process calls and result checks.
	probe(ctx context.Context, p *prober, s *session) error
}

// gater is implemented by a workload whose op i must wait for an earlier
// op to finish before it starts; the wait is not part of op i's time.
type gater interface {
	gate(ctx context.Context, i int)
}

// quiet returns an untraced session on the same daemon, for set-up
// traffic that must not mix with the ops' spans.
func (s *session) quiet() *session { return s.withTracer(nil) }

// keepFetched retains op i's measurements for the traced run's result
// checks.
func (s *session) keepFetched(i int, f []fetched) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.kept == nil {
		s.kept = make(map[int][]fetched)
	}
	s.kept[i] = f
}

// checkAll checks every measurement of a report.
func checkAll(f []fetched, kinds []string, fp string, cached bool) error {
	for k := range f {
		if err := checkFetched(f[k], kinds[k], fp, cached); err != nil {
			return err
		}
	}
	return nil
}

// paperWorkload: cold reports on the 15 stand-ins.
type paperWorkload struct {
	seed int64
	n    int
	sets []standIn
	ops  []paperOp
}

func (w *paperWorkload) prepare(context.Context) (err error) {
	if w.sets, err = loadStandIns(); err != nil {
		return err
	}
	w.ops = paperOps(w.seed, w.n, len(w.sets))
	return nil
}

func (w *paperWorkload) numOps() int { return w.n }

// subSize is one pass: every sub-window measures the same mix.
func (w *paperWorkload) subSize() int { return len(w.sets) }

func (w *paperWorkload) setupRepeats() int { return 7 }

func (w *paperWorkload) setup(ctx context.Context, s *session) error {
	for _, si := range w.sets {
		if err := s.upload(ctx, si); err != nil {
			return err
		}
	}
	si := w.sets[0]
	f, err := s.quiet().measure(ctx, -1, 0, si.name, paperConfig(warmupSeed), kinds)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return checkAll(f, kinds, si.fp, false)
}

func (w *paperWorkload) op(ctx context.Context, s *session, i int, parent int64) (func() error, error) {
	o := w.ops[i]
	si := w.sets[o.Dataset]
	f, err := s.measure(ctx, i, parent, si.name, paperConfig(o.Seed), kinds)
	if err != nil {
		return nil, err
	}
	if s.keep && i < len(w.sets) {
		s.keepFetched(i, f)
	}
	return func() error { return checkAll(f, kinds, si.fp, false) }, nil
}

// probe repeats the first pass (every stand-in once) in process.
func (w *paperWorkload) probe(ctx context.Context, p *prober, s *session) error {
	for i := 0; i < len(w.sets) && i < w.n; i++ {
		o := w.ops[i]
		si := w.sets[o.Dataset]
		if err := probeGraph(ctx, p, i, graphStream{si.g}, si.fp, paperConfig(o.Seed), s.kept[i]); err != nil {
			return err
		}
	}
	return nil
}

// probeGraph ingests one op's graph in process and repeats its
// measurements against the served artifacts.
func probeGraph(ctx context.Context, p *prober, op int, es gen.EdgeStream, fp string, cfg trustnetd.MeasureConfig, served []fetched) error {
	if len(served) != len(kinds) {
		return fmt.Errorf("op %d: no served artifacts kept for the result check", op)
	}
	mg, err := p.ingest(op, es, fp)
	if err != nil {
		return err
	}
	defer mg.Close()
	return p.measurements(ctx, op, mg, fp, cfg, served)
}

// replayKey is one cached (stand-in, measurement) pair.
type replayKey struct{ dataset, kind int }

// replayWorkload: cache hits on the keys of one paper pass.
type replayWorkload struct {
	seed  int64
	n     int
	sets  []standIn
	keys  []replayKey
	ops   []int
	first []fetched // per key, as first served (a cache miss)
	// finished[i] is closed when op i has its answer.
	finished []chan struct{}
}

func (w *replayWorkload) prepare(context.Context) (err error) {
	if w.sets, err = loadStandIns(); err != nil {
		return err
	}
	for d := range w.sets {
		for k := range kinds {
			w.keys = append(w.keys, replayKey{d, k})
		}
	}
	w.ops = replayOps(w.seed, w.n, len(w.sets))
	w.first = make([]fetched, len(w.keys))
	return nil
}

// gate holds op i until op i−15, which requested the same key, has its
// answer. Two concurrent requests for one key would be answered by
// single-flight dedup instead of a cache hit, and how often that happens
// would depend on timing: one client can run 15 ops while the other's op
// stalls.
func (w *replayWorkload) gate(ctx context.Context, i int) {
	if j := i - len(w.sets); j >= 0 {
		select {
		case <-w.finished[j]:
		case <-ctx.Done():
		}
	}
}

func (w *replayWorkload) numOps() int { return w.n }

func (w *replayWorkload) subSize() int { return max(1, w.n/10) }

// setupRepeats is lower than on paper and large: a replay set-up
// computes a whole paper pass.
func (w *replayWorkload) setupRepeats() int { return 3 }

// keyConfig is the configuration key k was computed under.
func (w *replayWorkload) keyConfig(d int) trustnetd.MeasureConfig {
	return paperConfig(seedBase(w.seed) + int64(d))
}

// setup uploads the stand-ins, computes one paper pass (every key a
// miss) with both clients, then requests every key once (every key a
// hit) to warm the hit path.
func (w *replayWorkload) setup(ctx context.Context, s *session) error {
	for _, si := range w.sets {
		if err := s.upload(ctx, si); err != nil {
			return err
		}
	}
	q := s.quiet()
	var mu sync.Mutex
	_, t := runClosedLoop(ctx, len(w.sets), noTracer, func(d int, _ *tracer, _ int64) (func() error, error) {
		f, err := q.measure(ctx, d, 0, w.sets[d].name, w.keyConfig(d), kinds)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		copy(w.first[d*len(kinds):], f)
		mu.Unlock()
		return func() error { return checkAll(f, kinds, w.sets[d].fp, false) }, nil
	})
	if t.failed > 0 {
		return fmt.Errorf("computing the replay keys: %s", t.first[0])
	}
	_, t = runClosedLoop(ctx, len(w.keys), noTracer, func(k int, _ *tracer, _ int64) (func() error, error) {
		return w.hit(ctx, q, k, 0, 0)
	})
	if t.failed > 0 {
		return fmt.Errorf("warming the replay keys: %s", t.first[0])
	}
	w.finished = make([]chan struct{}, w.n)
	for i := range w.finished {
		w.finished[i] = make(chan struct{})
	}
	return nil
}

// hit requests key k once; its check wants a cache hit serving the
// bytes first served for the key (which passed checkFetched).
func (w *replayWorkload) hit(ctx context.Context, s *session, k, op int, parent int64) (func() error, error) {
	key := w.keys[k]
	si := w.sets[key.dataset]
	f, err := s.measure(ctx, op, parent, si.name, w.keyConfig(key.dataset), kinds[key.kind:key.kind+1])
	if err != nil {
		return nil, err
	}
	return func() error {
		st := f[0].status
		switch {
		case st.State != trustnetd.StateDone:
			return fmt.Errorf("job %s: state %s", st.ID, st.State)
		case !st.Cached:
			return fmt.Errorf("job %s (%s on %s): not served from cache", st.ID, kinds[key.kind], si.name)
		case st.GraphFingerprint != si.fp:
			return fmt.Errorf("job %s: graph fingerprint %s, want %s", st.ID, st.GraphFingerprint, si.fp)
		case !bytes.Equal(f[0].body, w.first[k].body):
			return fmt.Errorf("job %s (%s on %s): replayed body differs from the body first served", st.ID, kinds[key.kind], si.name)
		}
		return nil
	}, nil
}

// op requests the slem key of stand-in ops[i]. Its artifact carries no
// files, so a hit writes nothing: the mixing, expansion and coreness
// hits re-emit their CSV files with an fsync each, which on a VM disk
// made the run an fsync benchmark whose throughput moved by a third
// between runs. The traced run times that emit path in process
// (jobs.run_hit_s).
func (w *replayWorkload) op(ctx context.Context, s *session, i int, parent int64) (func() error, error) {
	defer close(w.finished[i])
	return w.hit(ctx, s, w.ops[i]*len(kinds)+slemKind, i, parent)
}

// slemKind is the index of the slem measurement in kinds.
const slemKind = 3

// probe repeats the set-up pass in process and checks all 60 served
// bodies against it.
func (w *replayWorkload) probe(ctx context.Context, p *prober, _ *session) error {
	for d, si := range w.sets {
		served := w.first[d*len(kinds) : (d+1)*len(kinds)]
		if err := probeGraph(ctx, p, d, graphStream{si.g}, si.fp, w.keyConfig(d), served); err != nil {
			return err
		}
	}
	return nil
}

// largeWorkload: a new graph arrives, is measured and is evicted.
type largeWorkload struct {
	seed    int64
	n       int
	ops     []largeOp
	fps     []string
	warmFP  string
	warmReq trustnetd.GenerateRequest
}

// warmNodes sizes the warm-up graph: just at kernels.MinKernelNodes, so
// the warm-up takes the same kernel paths as the ops at a tenth of the
// cost.
const warmNodes = 4096

func (w *largeWorkload) prepare(ctx context.Context) error {
	w.ops = largeOps(w.seed, w.n)
	w.fps = make([]string, len(w.ops))
	for i, op := range w.ops {
		es, err := largeStream(op)
		if err != nil {
			return err
		}
		if w.fps[i], err = streamFingerprint(es); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	w.warmReq = trustnetd.GenerateRequest{Model: "ba", Nodes: warmNodes, Attach: largeAttach, Seed: warmupSeed}
	es, err := gen.StreamBA(warmNodes, largeAttach, w.warmReq.Seed)
	if err != nil {
		return err
	}
	w.warmFP, err = streamFingerprint(es)
	return err
}

// streamFingerprint builds es in memory and returns its canonical
// fingerprint.
func streamFingerprint(es gen.EdgeStream) (string, error) {
	g, err := gen.Build(es)
	if err != nil {
		return "", err
	}
	return graph.Fingerprint(g), nil
}

func (w *largeWorkload) numOps() int { return w.n }

// subSize is one graph of each family.
func (w *largeWorkload) subSize() int { return 2 }

func (w *largeWorkload) setupRepeats() int { return 7 }

func (w *largeWorkload) setup(ctx context.Context, s *session) error {
	q := s.quiet()
	if err := q.generate(ctx, -1, 0, "warmup", w.warmReq, w.warmFP); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	f, err := q.measure(ctx, -1, 0, "warmup", largeConfig(w.warmReq.Seed), kinds)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := checkAll(f, kinds, w.warmFP, false); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return q.evict(ctx, -1, 0, "warmup")
}

// generate asks the daemon to synthesize a graph and checks the
// fingerprint it reports.
func (s *session) generate(ctx context.Context, op int, parent int64, name string, req trustnetd.GenerateRequest, wantFP string) error {
	sp := s.tr.start(op, parent, "trustnetd.generate")
	var info trustnetd.GraphInfo
	err := s.d.callJSON(ctx, "POST", "/v1/graphs/"+name+"/generate", req, &info, http.StatusCreated)
	sp.end()
	if err != nil {
		return err
	}
	if info.Fingerprint != wantFP {
		return fmt.Errorf("generate %s: daemon fingerprint %s, want %s", name, info.Fingerprint, wantFP)
	}
	return nil
}

// evict deletes a graph from the daemon's registry.
func (s *session) evict(ctx context.Context, op int, parent int64, name string) error {
	sp := s.tr.start(op, parent, "trustnetd.evict")
	_, err := s.d.call(ctx, "DELETE", "/v1/graphs/"+name, nil, http.StatusOK)
	sp.end()
	return err
}

func (w *largeWorkload) op(ctx context.Context, s *session, i int, parent int64) (func() error, error) {
	op := w.ops[i]
	if err := s.generate(ctx, i, parent, op.Name, generateRequest(op), w.fps[i]); err != nil {
		return nil, err
	}
	f, err := s.measure(ctx, i, parent, op.Name, largeConfig(op.Seed), kinds)
	if err != nil {
		return nil, err
	}
	if err := s.evict(ctx, i, parent, op.Name); err != nil {
		return nil, err
	}
	if s.keep && i < 2 {
		s.keepFetched(i, f)
	}
	return func() error { return checkAll(f, kinds, w.fps[i], false) }, nil
}

// probe repeats the first op of each family in process.
func (w *largeWorkload) probe(ctx context.Context, p *prober, s *session) error {
	for i := 0; i < 2 && i < w.n; i++ {
		es, err := largeStream(w.ops[i])
		if err != nil {
			return err
		}
		if err := probeGraph(ctx, p, i, es, w.fps[i], largeConfig(w.ops[i].Seed), s.kept[i]); err != nil {
			return err
		}
	}
	return nil
}

// serviceRun is what runService measured.
type serviceRun struct {
	setups     []setupTime
	win        windowStats
	spans      []spanRecord
	extra      map[string][]float64
	queueWaits []float64
	checks     tally
}

// setupTime is one set-up's wall time and its steal-corrected time.
type setupTime struct{ raw, unstolen float64 }

// timeSetup runs fn and times it.
func timeSetup(steal *stealClock, fn func() error) (setupTime, error) {
	l0, start := steal.read(), time.Now()
	err := fn()
	d := time.Since(start)
	return setupTime{raw: d.Seconds(), unstolen: unstolen(d, steal.read()-l0).Seconds()}, err
}

// noTracer traces no op.
func noTracer(int) *tracer { return nil }

// runService runs one service workload. An untraced run sets up
// setupRepeats times on fresh daemons and times the window on the last.
// A traced run sets up once, times a window whose ops alternate between
// traced and untraced pairs, stops the daemon, and then makes the
// in-process probes and result checks.
func runService(ctx context.Context, e *benchEnv, w serviceWorkload) (*serviceRun, error) {
	if err := w.prepare(ctx); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	out := &serviceRun{}
	tr := newTracer(e.trace)
	repeats := w.setupRepeats()
	tracerFor := noTracer
	if e.trace {
		repeats = 1
		tracerFor = func(i int) *tracer {
			if tracedOp(i) {
				return tr
			}
			return nil
		}
	}
	var s *session
	defer func() {
		if s != nil {
			s.d.stop()
		}
	}()
	for k := 0; k < repeats; k++ {
		if s != nil {
			s.d.stop()
			s = nil
		}
		st, err := timeSetup(e.steal, func() error {
			d, err := startDaemon(ctx, e.daemonBin, e.stateRoot)
			if err != nil {
				return err
			}
			s = newSession(d, tr, e.trace)
			return w.setup(ctx, s)
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out.setups = append(out.setups, st)
	}
	var gate func(int)
	if g, ok := w.(gater); ok {
		gate = func(i int) { g.gate(ctx, i) }
	}
	var err error
	out.win, err = daemonWindow(ctx, s.d, e.steal, w.numOps(), w.subSize(), tracerFor, func(i int, tr *tracer, parent int64) (func() error, error) {
		return w.op(ctx, s.withTracer(tr), i, parent)
	}, gate)
	if err != nil {
		return nil, err
	}
	s.d.stop()
	kept := s
	s = nil
	if !e.trace {
		return out, nil
	}
	dir, err := os.MkdirTemp(e.stateRoot, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p := newProber(tr, dir, &out.checks)
	if err := w.probe(ctx, p, kept); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	out.spans = tr.records()
	out.extra = p.extra
	out.queueWaits = kept.queueWaits
	return out, nil
}
