package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/kcore"
	"github.com/trustnet/trustnet/internal/kernels"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/trustnetd"
	"github.com/trustnet/trustnet/internal/walk"
)

// prober makes the traced run's in-process calls into each layer's
// public functions, on the inputs the timed ops used, outside any timed
// window. Every call is a span carrying the heap bytes it allocated;
// derived per-call values (a step time, bytes per envelope) go to extra.
// Result checks made along the way count in tally.
type prober struct {
	tr    *tracer
	dir   string
	tally *tally
	extra map[string][]float64
	store *jobs.Store
}

// newProber returns a prober whose scratch files live under dir.
func newProber(tr *tracer, dir string, t *tally) *prober {
	return &prober{tr: tr, dir: dir, tally: t, extra: make(map[string][]float64),
		store: jobs.NewStore(filepath.Join(dir, "cache"))}
}

// call runs fn as a span named name of op, recording its allocation.
func (p *prober) call(op int, name string, fn func() error) (time.Duration, error) {
	return timedCall(p.tr, op, 0, name, fn)
}

// timedCall runs fn inside a span that records the heap bytes fn
// allocated, and returns fn's wall time. The two heap reads stop the
// world briefly, outside the span.
func timedCall(tr *tracer, op int, parent int64, name string, fn func() error) (time.Duration, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := tr.start(op, parent, name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	sp.endAlloc(m1.TotalAlloc - m0.TotalAlloc)
	return d, err
}

// ingest streams g's edges to a TNG2 file through gen.StreamToFile,
// maps it and fingerprints it, returning the mapped view; the caller
// closes it.
func (p *prober) ingest(op int, es gen.EdgeStream, wantFP string) (*graph.Mapped, error) {
	path := filepath.Join(p.dir, fmt.Sprintf("probe-%d.tng2", op))
	if _, err := p.call(op, "gen.stream_to_file", func() error {
		_, err := gen.StreamToFile(es, path)
		return err
	}); err != nil {
		return nil, err
	}
	defer os.Remove(path) // the mapping keeps the data reachable
	var mg *graph.Mapped
	if _, err := p.call(op, "graph.open_mapped", func() (err error) {
		mg, err = graph.OpenMapped(path)
		return err
	}); err != nil {
		return nil, err
	}
	var fp string
	p.call(op, "graph.fingerprint", func() error { fp = graph.Fingerprint(mg); return nil })
	p.tally.expect(fp == wantFP, "op %d: in-process fingerprint %s, want %s", op, fp, wantFP)
	return mg, nil
}

// measurements repeats the daemon's four measurements of cfg on g in
// process and checks them against the artifacts the daemon served: the
// mixing, expansion and coreness fingerprint lines must equal the
// in-process result fingerprints, and the SLEM μ must print the same.
// It then times the batched kernels on g and the job layer's cache
// paths on the served envelopes.
func (p *prober) measurements(ctx context.Context, op int, g graph.View, fp string, cfg trustnetd.MeasureConfig, served []fetched) error {
	mix, err := p.mixing(ctx, op, g, cfg)
	if err != nil {
		return err
	}
	var exp *expansion.Result
	if _, err := p.call(op, "expansion.measure", func() error {
		srcs, err := expansion.SampledSources(g, cfg.ExpansionSources, cfg.Seed)
		if err != nil {
			return err
		}
		exp, err = expansion.Measure(ctx, g, expansion.Config{Sources: srcs})
		return err
	}); err != nil {
		return err
	}
	var dec *kcore.Decomposition
	if _, err := p.call(op, "kcore.decompose", func() (err error) {
		dec, err = kcore.Decompose(g)
		return err
	}); err != nil {
		return err
	}
	var sl *spectral.Result
	d, err := p.call(op, "spectral.slem", func() (err error) {
		sl, err = spectral.SLEMContext(ctx, g, spectral.Config{Tolerance: cfg.Tolerance, Seed: cfg.Seed})
		return err
	})
	if err != nil {
		return err
	}
	if sl.Iterations > 0 {
		p.extra["spectral.iteration_s"] = append(p.extra["spectral.iteration_s"], d.Seconds()/float64(sl.Iterations))
	}
	want := map[string]string{
		"mixing":    jobs.MixingFingerprint(mix),
		"expansion": jobs.ExpansionFingerprint(exp),
		"coreness":  jobs.CorenessFingerprint(dec),
		"slem":      fmt.Sprintf("%.6f", sl.SLEM),
	}
	for k, kind := range kinds {
		p.tally.check(checkSummary(op, kind, served[k].body, want[kind]))
	}
	if err := p.kernels(op, g, cfg); err != nil {
		return err
	}
	return p.jobLayer(ctx, op, g, fp, cfg, served)
}

// mixing times walk.MeasureMixing on g, also filing the time under the
// path the measurement dispatches to: per-source walks below
// kernels.MinKernelNodes nodes, walk-block kernels from there up.
func (p *prober) mixing(ctx context.Context, op int, g graph.View, cfg trustnetd.MeasureConfig) (*walk.MixingResult, error) {
	var mix *walk.MixingResult
	d, err := p.call(op, "walk.measure_mixing", func() (err error) {
		mix, err = walk.MeasureMixing(ctx, g, walk.MixingConfig{MaxSteps: cfg.MaxSteps, Sources: cfg.Sources, Seed: cfg.Seed})
		return err
	})
	path := "walk.measure_mixing.per_source_s"
	if g.NumNodes() >= kernels.MinKernelNodes {
		path = "walk.measure_mixing.kernel_s"
	}
	p.extra[path] = append(p.extra[path], d.Seconds())
	return mix, err
}

// checkSummary compares the result line of one served artifact with the
// in-process value.
func checkSummary(op int, kind string, body []byte, want string) error {
	sum, err := summaryOf(body)
	if err != nil {
		return fmt.Errorf("op %d %s: %w", op, kind, err)
	}
	re := fingerprintLine
	if kind == "slem" {
		re = muLine
	}
	m := re.FindStringSubmatch(sum)
	if m == nil {
		return fmt.Errorf("op %d %s: no result line in summary %q", op, kind, sum)
	}
	if m[1] != want {
		return fmt.Errorf("op %d %s: daemon reports %s, in-process %s", op, kind, m[1], want)
	}
	return nil
}

// kernels times a full 16-source WalkBlock walk of cfg.MaxSteps steps
// (reported per step) and one 64-source BFSBatch run on g's CSR.
func (p *prober) kernels(op int, g graph.View, cfg trustnetd.MeasureConfig) error {
	csr := graph.Materialize(g)
	srcs, err := walk.SampleSources(g, kernels.DefaultBlockWidth, cfg.Seed)
	if err != nil {
		return err
	}
	wb, err := kernels.NewWalkBlock(csr, srcs, false)
	if err != nil {
		return err
	}
	steps := cfg.MaxSteps
	d, _ := p.call(op, "kernels.walkblock_walk", func() error {
		for s := 0; s < steps; s++ {
			wb.Step()
		}
		return nil
	})
	p.extra["kernels.walkblock_step_s"] = append(p.extra["kernels.walkblock_step_s"], d.Seconds()/float64(steps))
	bsrc, err := expansion.SampledSources(g, kernels.BFSBatchWidth, cfg.Seed)
	if err != nil {
		return err
	}
	bb := kernels.NewBFSBatch(csr)
	_, err = p.call(op, "kernels.bfsbatch_run", func() error {
		_, err := bb.Run(bsrc)
		return err
	})
	return err
}

// jobLayer saves and loads every served envelope through a scratch
// jobs.Store, then runs each job in process through a jobs.Runner on
// that store: every run must be a cache hit.
func (p *prober) jobLayer(ctx context.Context, op int, g graph.View, fp string, cfg trustnetd.MeasureConfig, served []fetched) error {
	reg, err := trustnetd.Jobs(g, cfg)
	if err != nil {
		return err
	}
	for k, kind := range kinds {
		p.extra["jobs.artifact_bytes"] = append(p.extra["jobs.artifact_bytes"], float64(len(served[k].body)))
		var a jobs.Artifact
		if err := json.Unmarshal(served[k].body, &a); err != nil {
			return err
		}
		if _, err := p.call(op, "jobs.store_save", func() error { return p.store.Save(&a) }); err != nil {
			return err
		}
		var loaded *jobs.Artifact
		p.call(op, "jobs.store_load", func() error {
			loaded = p.store.Load(kind, fp, a.ConfigFingerprint)
			return nil
		})
		p.tally.expect(loaded != nil && loaded.Digest == a.Digest, "op %d %s: store round trip lost the envelope", op, kind)
		j, err := reg.Lookup(kind)
		if err != nil {
			return err
		}
		if !p.tally.expect(j.Fingerprint() == served[k].status.ConfigFingerprint, "op %d %s: in-process config fingerprint %s, daemon %s",
			op, kind, j.Fingerprint(), served[k].status.ConfigFingerprint) {
			continue
		}
		runner := &jobs.Runner{Cache: p.store, Env: jobs.Env{GraphFingerprint: fp}, OutDir: filepath.Join(p.dir, "out")}
		var cached bool
		if _, err := p.call(op, "jobs.run_hit", func() (err error) {
			cached, err = runner.Run(ctx, j)
			return err
		}); err != nil {
			return err
		}
		p.tally.expect(cached, "op %d %s: in-process run of a stored key missed the cache", op, kind)
	}
	return nil
}

// graphStream replays a graph's edges as a gen.EdgeStream, so a stand-in
// goes through the same streaming write path as a generated graph.
type graphStream struct{ g graph.View }

// NumNodes implements gen.EdgeStream.
func (s graphStream) NumNodes() int { return s.g.NumNodes() }

// Edges implements gen.EdgeStream, yielding each edge once.
func (s graphStream) Edges(yield func(u, v graph.NodeID) error) error {
	var err error
	s.g.VisitEdges(func(e graph.Edge) bool {
		err = yield(e.U, e.V)
		return err == nil
	})
	return err
}
