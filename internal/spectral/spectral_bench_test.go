package spectral

import (
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
)

func BenchmarkSLEMFastMixer(b *testing.B) {
	g, err := gen.BarabasiAlbert(3000, 5, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SLEM(g, Config{Tolerance: 1e-8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSLEMSlowMixer(b *testing.B) {
	// Clustered spectra converge slowly: this benchmark tracks the cost
	// of the hard case.
	g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities: 8, CommunitySize: 100, Attach: 4, Bridges: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SLEM(g, Config{Tolerance: 1e-6, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSLEMIterations times the Lanczos iteration itself: every run
// does exactly slemBenchIterations steps (no estimate moves by less than
// a 1e-300 tolerance this early), and ns/iter is the run time per step,
// setup included. ba3000 is paper-sized and single-worker; ba40000 is the size
// of perfbench's large workload, above the parallel threshold.
func BenchmarkSLEMIterations(b *testing.B) {
	const slemBenchIterations = 50
	for _, bg := range []struct {
		name      string
		n, attach int
	}{
		{"ba3000", 3000, 5},
		{"ba40000", 40000, 8},
	} {
		g, err := gen.BarabasiAlbert(bg.n, bg.attach, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bg.name, func(b *testing.B) {
			cfg := Config{Tolerance: 1e-300, MaxIterations: slemBenchIterations, Seed: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := SLEM(g, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if r.Iterations != slemBenchIterations {
					b.Fatalf("ran %d iterations, want %d", r.Iterations, slemBenchIterations)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slemBenchIterations), "ns/iter")
		})
	}
}
