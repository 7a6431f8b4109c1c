// Package trustnet's root benchmark harness: one benchmark per table and
// figure of the paper (regenerating the artifact through the experiment
// runners), plus ablation benchmarks for the design choices DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks use the runners' Quick mode so a full sweep
// stays laptop-sized; `go run ./cmd/experiments` produces the full-scale
// artifacts.
package trustnet

import (
	"context"
	"testing"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/experiments"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/spectral"
	"github.com/trustnet/trustnet/internal/sybil"
	"github.com/trustnet/trustnet/internal/sybil/gatekeeper"
	"github.com/trustnet/trustnet/internal/sybil/sybillimit"
	"github.com/trustnet/trustnet/internal/walk"
)

// benchOpts builds fresh quick options per benchmark (the cache is shared
// across iterations inside one benchmark, mirroring how the experiment
// binary shares it across runners).
func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Seed: 7, Cache: &datasets.Cache{}}
}

func BenchmarkTableI(b *testing.B) {
	opts := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableI(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	opts := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure1(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	opts := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableII(b *testing.B) {
	opts := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableII(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	opts := benchOpts()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(ctx, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4(b *testing.B) {
	opts := benchOpts()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(ctx, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	opts := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCrossProperty(b *testing.B) {
	opts := benchOpts()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CrossProperty(ctx, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFutureWorkDynamic(b *testing.B) {
	opts := benchOpts()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FutureWorkDynamic(ctx, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFutureWorkModulated(b *testing.B) {
	opts := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FutureWorkModulated(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAttackerModels(b *testing.B) {
	opts := benchOpts()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AttackerModels(context.Background(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBetweennessDistribution(b *testing.B) {
	opts := benchOpts()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BetweennessDistribution(ctx, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBridgeSweep(b *testing.B) {
	opts := benchOpts()
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BridgeSweep(ctx, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

// benchGraph builds the shared medium test graph.
func benchGraph(b *testing.B) *graph.Graph {
	b.Helper()
	g, err := gen.BarabasiAlbert(2000, 6, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// Lazy vs non-lazy walks: the lazy walk is aperiodicity-safe but needs
// roughly twice the steps for the same TVD.
func BenchmarkAblationLazyWalk(b *testing.B) {
	g := benchGraph(b)
	for _, lazy := range []bool{false, true} {
		name := "plain"
		if lazy {
			name = "lazy"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := walk.MeasureMixing(context.Background(), g, walk.MixingConfig{
					MaxSteps: 40, Sources: 8, Lazy: lazy, Seed: 2,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Dense distribution push vs sparse trajectory sampling: the exact dense
// push costs O(m) per step regardless of support; the Monte-Carlo
// endpoint estimate trades accuracy for speed on large graphs.
func BenchmarkAblationSparsePush(b *testing.B) {
	g := benchGraph(b)
	b.Run("dense-exact", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := walk.NewDistribution(g, 0, false)
			if err != nil {
				b.Fatal(err)
			}
			for s := 0; s < 20; s++ {
				d.Step()
			}
		}
	})
	b.Run("monte-carlo", func(b *testing.B) {
		b.ReportAllocs()
		w := walk.NewWalker(g, 3)
		for i := 0; i < b.N; i++ {
			for t := 0; t < 2000; t++ {
				if _, err := w.Endpoint(0, 20); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// Spectral bound vs full sampling measurement: the Lanczos SLEM is the
// cheap worst-case bound, the sampling method the expensive per-source
// picture — the paper uses both.
func BenchmarkAblationSpectralVsSampling(b *testing.B) {
	g := benchGraph(b)
	b.Run("spectral", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spectral.SLEM(g, spectral.Config{Tolerance: 1e-6, Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampling", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := walk.MeasureMixing(context.Background(), g, walk.MixingConfig{
				MaxSteps: 60, Sources: 20, Seed: 1,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Exact all-sources expansion vs sampled sources: the paper's O(nm)
// measurement vs the estimate used on larger graphs.
func BenchmarkAblationSampledExpansion(b *testing.B) {
	g := benchGraph(b)
	ctx := context.Background()
	b.Run("all-sources", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := expansion.Measure(ctx, g, expansion.Config{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sampled-100", func(b *testing.B) {
		b.ReportAllocs()
		srcs, err := expansion.SampledSources(g, 100, 1)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := expansion.Measure(ctx, g, expansion.Config{Sources: srcs}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// GateKeeper vs SybilLimit on identical attack instances: the ticket
// distribution is near-linear per distributer; SybilLimit pays for
// r = Θ(√m) routing instances.
func BenchmarkAblationDefenseComparison(b *testing.B) {
	g := benchGraph(b)
	a, err := sybil.Inject(g, sybil.AttackConfig{SybilNodes: 200, AttackEdges: 5, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("gatekeeper", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := gatekeeper.Run(a, 0, gatekeeper.Config{Distributers: 50, Seed: 3})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := out.Accepted(0.2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sybillimit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sybillimit.Run(a, 0, sybillimit.Config{Seed: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
