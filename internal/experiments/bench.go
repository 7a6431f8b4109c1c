package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/walk"
)

// BenchEntry is one kernel timed at workers=1 versus workers=N.
type BenchEntry struct {
	// Name is the kernel: mixing (Eq. 2 sampling method), expansion
	// (Eq. 4 envelopes), or spectral (SLEM power iteration).
	Name string `json:"name"`
	// Dataset is the registry graph the kernel ran on.
	Dataset string `json:"dataset"`
	// Workers is the parallel worker count compared against 1.
	Workers int `json:"workers"`
	// SequentialSeconds and ParallelSeconds are the best-of-Repeats wall
	// times at workers=1 and workers=Workers.
	SequentialSeconds float64 `json:"sequential_seconds"`
	ParallelSeconds   float64 `json:"parallel_seconds"`
	// Speedup is SequentialSeconds / ParallelSeconds.
	Speedup float64 `json:"speedup"`
	// Repeats is how many times each variant ran (best time kept).
	Repeats int `json:"repeats"`
	// Identical reports the determinism contract held: the workers=1 and
	// workers=N runs produced bit-for-bit identical results.
	Identical bool `json:"identical"`
}

// BenchResult is the perf trajectory point cmd/experiments bench writes to
// out/BENCH_parallel.json. Machine fields qualify the numbers: speedup on
// a single-core runner is ~1× by construction.
type BenchResult struct {
	GoVersion  string       `json:"go_version"`
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Workers    int          `json:"workers"`
	Quick      bool         `json:"quick"`
	Seed       int64        `json:"seed"`
	UnixTime   int64        `json:"unix_time"`
	Entries    []BenchEntry `json:"entries"`
}

// benchKernel is one measurement variant: run executes it at the given
// worker count and returns a fingerprint of the result, so the harness can
// check the workers=1 and workers=N runs agree bit-for-bit.
type benchKernel struct {
	name    string
	dataset string
	run     func(ctx context.Context, g *graph.Graph, workers int) (fingerprint string, err error)
}

// Bench times the three parallel measurement kernels at workers=1 vs
// workers=N and reports the wall-clock speedups — the repo's benchmark
// trajectory. workers <= 0 defaults to GOMAXPROCS; each variant runs
// repeats times (floored at 1) and keeps the best time, damping scheduler
// noise.
func Bench(ctx context.Context, opts Options, workers, repeats int) (*BenchResult, error) {
	opts.fill()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if repeats < 1 {
		repeats = 1
	}
	dataset := "epinion"
	if opts.Quick {
		dataset = "rice-grad"
	}

	mixingCfg := walk.MixingConfig{
		MaxSteps: opts.pick(30, 100),
		Sources:  opts.pick(8, 64),
		Seed:     opts.Seed,
	}
	expansionSources := opts.pick(64, 512)
	spectralCfg := spectral.Config{Tolerance: 1e-9, Seed: opts.Seed}

	kernels := []benchKernel{
		{
			name: "mixing", dataset: dataset,
			run: func(ctx context.Context, g *graph.Graph, w int) (string, error) {
				cfg := mixingCfg
				cfg.Workers = w
				mr, err := walk.MeasureMixing(ctx, g, cfg)
				if err != nil {
					return "", err
				}
				last := len(mr.MeanTVD) - 1
				return fmt.Sprintf("%x/%x/%x", mr.MeanTVD[last], mr.MaxTVD[last], mr.MinTVD[last]), nil
			},
		},
		{
			name: "expansion", dataset: dataset,
			run: func(ctx context.Context, g *graph.Graph, w int) (string, error) {
				srcs, err := expansion.SampledSources(g, expansionSources, opts.Seed)
				if err != nil {
					return "", err
				}
				er, err := expansion.Measure(ctx, g, expansion.Config{Sources: srcs, Workers: w})
				if err != nil {
					return "", err
				}
				fp := fmt.Sprintf("%d/%d", er.MaxEccentricity, len(er.FactorBySetSize.Keys()))
				for _, k := range er.FactorBySetSize.Keys() {
					s, _ := er.FactorBySetSize.Get(k)
					fp += fmt.Sprintf("/%x", s.Mean())
				}
				return fp, nil
			},
		},
		{
			name: "spectral", dataset: dataset,
			run: func(ctx context.Context, g *graph.Graph, w int) (string, error) {
				cfg := spectralCfg
				cfg.Workers = w
				sr, err := spectral.SLEM(g, cfg)
				if err != nil {
					return "", err
				}
				return fmt.Sprintf("%x/%d", sr.SLEM, sr.Iterations), nil
			},
		},
	}

	res := &BenchResult{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Quick:      opts.Quick,
		Seed:       opts.Seed,
		UnixTime:   time.Now().Unix(),
	}
	for _, k := range kernels {
		g, err := opts.graphFor(k.dataset)
		if err != nil {
			return nil, err
		}
		e := BenchEntry{Name: k.name, Dataset: k.dataset, Workers: workers, Repeats: repeats}
		var seqFP, parFP string
		e.SequentialSeconds, seqFP, err = timeVariant(func() (string, error) { return k.run(ctx, g, 1) }, repeats)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench %s workers=1: %w", k.name, err)
		}
		e.ParallelSeconds, parFP, err = timeVariant(func() (string, error) { return k.run(ctx, g, workers) }, repeats)
		if err != nil {
			return nil, fmt.Errorf("experiments: bench %s workers=%d: %w", k.name, workers, err)
		}
		if e.ParallelSeconds > 0 {
			e.Speedup = e.SequentialSeconds / e.ParallelSeconds
		}
		e.Identical = seqFP == parFP
		res.Entries = append(res.Entries, e)
	}
	return res, nil
}

// benchGraph generates the 10⁴-node preferential-attachment graph the
// view and scale baselines are measured on. It is deliberately not a
// registry dataset: the registry sizes are tuned for the paper's
// figures, while the baselines want one fixed graph larger than any of
// the stand-ins.
func benchGraph() (*graph.Graph, error) {
	g, err := gen.BarabasiAlbert(10000, 8, 42)
	if err != nil {
		return nil, err
	}
	if !graph.IsConnected(g) {
		g, _ = graph.LargestComponent(g)
	}
	return g, nil
}

// timeVariant runs fn repeats times, keeping the best wall time, and
// errors if the fingerprint wavers across repeats.
func timeVariant(fn func() (string, error), repeats int) (float64, string, error) {
	best := 0.0
	fp := ""
	for r := 0; r < repeats; r++ {
		start := time.Now()
		f, err := fn()
		if err != nil {
			return 0, "", err
		}
		sec := time.Since(start).Seconds()
		if r == 0 || sec < best {
			best = sec
		}
		if r > 0 && f != fp {
			return 0, "", fmt.Errorf("variant not deterministic across repeats")
		}
		fp = f
	}
	return best, fp, nil
}
