package incremental

import (
	"fmt"
	"runtime"
	"testing"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/parallel"
)

// BenchmarkExpansionMaintainerApply times ExpansionMaintainer.Apply
// over epochs 1–10 of the epoch sweep's pinned drift schedule, on its
// full-size clustered graph (50 communities of 200 nodes) with 256
// sources, at one worker and at GOMAXPROCS. One op is the whole
// ten-epoch window, which holds the schedule's heaviest early delta (a
// lost bridge edge in epoch 3); the fault-model advances, their
// Degraded CSRs and the initial BFSs run off the clock. The extra metrics are the window's
// repair counts: sources that fell back to a BFS, and orphaned nodes.
func BenchmarkExpansionMaintainerApply(b *testing.B) {
	const window = 10
	g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities: 50, CommunitySize: 200, Attach: 8, Bridges: 4, Seed: 97,
	})
	if err != nil {
		b.Fatal(err)
	}
	srcs, err := expansion.SampledSources(g, 256, parallel.SeedFor(1, 0))
	if err != nil {
		b.Fatal(err)
	}
	fcfg := faults.Config{Churn: 0.1, EdgeLoss: 0.05, Drift: 0.005, Seed: 1}
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var total repairCounts
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := faults.New(g, fcfg)
				if err != nil {
					b.Fatal(err)
				}
				em, err := NewExpansionMaintainer(m.Degraded(), srcs, w)
				if err != nil {
					b.Fatal(err)
				}
				var d *faults.EpochDelta
				for e := 1; e <= window; e++ {
					d = m.AdvanceEpochDelta(d)
					g := m.Degraded()
					b.StartTimer()
					em.Apply(d, g)
					b.StopTimer()
					total.add(em.last)
				}
			}
			b.ReportMetric(float64(total.deletionFallbacks+total.insertionFallbacks)/float64(b.N), "fallbacks/op")
			b.ReportMetric(float64(total.orphaned)/float64(b.N), "orphans/op")
		})
	}
}
