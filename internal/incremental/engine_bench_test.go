package incremental

import (
	"context"
	"testing"
	"time"
)

// BenchmarkEngineEpochs times the engine over perfbench epochs' window:
// 100 epochs of Advance then Measure on its graph, sources, fault
// schedule and SLEM config, at GOMAXPROCS workers, so it reads the wall
// time the workload's ops_per_s measures without the harness. The
// fault model, NewEngine and epoch 0 run off the clock. One op is the
// window; ns/epoch is its mean per epoch, and advance-ns/epoch and
// measure-ns/epoch split it the way the traced workload's
// incremental.advance and incremental.measure spans do.
func BenchmarkEngineEpochs(b *testing.B) {
	const window = 100
	g, sources := epochsInputs(b)
	ctx := context.Background()
	var advance, measure time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		en := newEpochsEngine(b, g, sources, 0)
		b.StartTimer()
		for epoch := 1; epoch <= window; epoch++ {
			t0 := time.Now()
			en.Advance()
			t1 := time.Now()
			if _, err := en.Measure(ctx); err != nil {
				b.Fatal(err)
			}
			advance += t1.Sub(t0)
			measure += time.Since(t1)
		}
	}
	epochs := float64(b.N * window)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/epochs, "ns/epoch")
	b.ReportMetric(float64(advance.Nanoseconds())/epochs, "advance-ns/epoch")
	b.ReportMetric(float64(measure.Nanoseconds())/epochs, "measure-ns/epoch")
}
