package walk

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/parallel"
)

// TestEquivalenceMixingWorkerCounts is the determinism contract for the
// mixing measurement: for a fixed seed, MeasureMixing returns a
// bit-for-bit identical MixingResult at every worker count.
func TestEquivalenceMixingWorkerCounts(t *testing.T) {
	g, err := gen.BarabasiAlbert(400, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := MixingConfig{MaxSteps: 25, Sources: 20, Seed: 3}
	run := func(workers int) *MixingResult {
		cfg := base
		cfg.Workers = workers
		r, err := MeasureMixing(context.Background(), g, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return r
	}
	want := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: MixingResult differs from workers=1", workers)
		}
	}
}

// TestEquivalenceBlockedMixingWidths is the blocked-kernel contract:
// MeasureMixing returns a MixingResult bit-for-bit identical to the
// per-source oracle at source counts that leave every kind of final
// block (1, 15, 16, 17 and 40 sources against blocks of
// kernels.DefaultBlockWidth) and at any worker count. The graphs sit on
// both sides of the 4096-node cutoff the kernels used to need, lazy and
// plain, including bipartite graphs where only the lazy walk converges,
// a disconnected graph with isolated nodes, and mmap-backed inputs.
func TestEquivalenceBlockedMixingWidths(t *testing.T) {
	ba, baBig := mustBA(t, 400, 4, 7), mustBA(t, bigNodes, 3, 8)
	cycle, err := gen.Cycle(128)
	if err != nil {
		t.Fatal(err)
	}
	cycleBig, err := gen.Cycle(bigNodes)
	if err != nil {
		t.Fatal(err)
	}
	star, err := gen.Star(90)
	if err != nil {
		t.Fatal(err)
	}
	starBig, err := gen.Star(bigNodes)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    graph.View
		lazy bool
	}{
		{"ba-plain", ba, false}, {"ba-lazy", ba, true},
		{"ba-big-plain", baBig, false}, {"ba-big-lazy", baBig, true},
		{"cycle-lazy", cycle, true}, {"cycle-big-lazy", cycleBig, true},
		{"star", star, false}, {"star-big", starBig, true},
		{"disconnected", disconnectedGraph(t, 40), false},
		{"disconnected-big", disconnectedGraph(t, bigNodes), true},
		{"ba-mapped", mustMapped(t, ba), false}, {"ba-big-mapped", mustMapped(t, baBig), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, sources := range []int{1, 15, 16, 17, 40} {
				checkMixingOracle(t, tc.g, MixingConfig{MaxSteps: 10, Sources: sources, Seed: 3, Lazy: tc.lazy})
			}
		})
	}
}

// bigNodes sizes the test graphs above the 4096-node cutoff below which
// the measurements used to run the per-source loops.
const bigNodes = 4200

// disconnectedGraph builds an n-node graph (n >= 40) of a star component,
// a path component and three isolated nodes.
func disconnectedGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	half := graph.NodeID(n / 2)
	for v := graph.NodeID(1); v < half-2; v++ {
		if err := b.AddEdge(0, v); err != nil { // hub component
			t.Fatal(err)
		}
	}
	for v := half; v < graph.NodeID(n-2); v++ {
		if err := b.AddEdge(v, v+1); err != nil { // path component; half-2, half-1, n-1 isolated
			t.Fatal(err)
		}
	}
	return b.Build()
}

// mustMapped writes g as a TNG2 file and maps it back, so the test
// measures the mmap-backed view.
func mustMapped(t *testing.T, g *graph.Graph) *graph.Mapped {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.tng2")
	if err := graph.SaveCSR(path, g); err != nil {
		t.Fatal(err)
	}
	mg, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mg.Close() })
	return mg
}

// sourceCurve is the per-source reference loop the blocked kernel
// replaced: it evolves one exact Distribution from src and returns its
// TVD-to-stationarity trajectory.
func sourceCurve(g graph.View, src graph.NodeID, pi []float64, cfg MixingConfig) ([]float64, error) {
	d, err := NewDistribution(g, src, cfg.Lazy)
	if err != nil {
		return nil, fmt.Errorf("source %d: %w", src, err)
	}
	curve := make([]float64, cfg.MaxSteps)
	for t := range curve {
		d.Step()
		if curve[t], err = d.DistanceTo(pi); err != nil {
			return nil, err
		}
	}
	return curve, nil
}

// oracleMixing is the reference MeasureMixing: every sampled source runs
// sourceCurve, one source per task at cfg.Workers, and MeasureMixing
// folds the curves as a fully resumed checkpoint — so the kernel under
// test and the oracle share only the source-order fold.
func oracleMixing(t *testing.T, g graph.View, cfg MixingConfig) *MixingResult {
	t.Helper()
	pi, err := graph.Stationary(g)
	if err != nil {
		t.Fatal(err)
	}
	sources, err := SampleSources(g, cfg.Sources, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	curves := make([][]float64, len(sources))
	if err := parallel.ForEach(context.Background(), cfg.Workers, len(sources), func(_, i int) error {
		curve, err := sourceCurve(g, sources[i], pi, cfg)
		curves[i] = curve
		return err
	}); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = &MixingCheckpoint{Sources: sources, Curves: curves}
	r, err := MeasureMixing(context.Background(), g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Curves, curves) {
		t.Fatal("oracle: the fold did not keep the resumed curves")
	}
	return r
}

// checkMixingOracle requires MeasureMixing on v to equal the per-source
// oracle bit for bit at workers 1, 3 and 8.
func checkMixingOracle(t *testing.T, v graph.View, cfg MixingConfig) {
	t.Helper()
	want := oracleMixing(t, v, cfg)
	for _, workers := range []int{1, 3, 8} {
		cfg.Workers = workers
		got, err := MeasureMixing(context.Background(), v, cfg)
		if err != nil {
			t.Fatalf("sources=%d workers=%d: %v", cfg.Sources, workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("sources=%d workers=%d: differs from the per-source oracle", cfg.Sources, workers)
		}
	}
}

// TestEquivalenceSparseStepDense pins the sparse-frontier Step fast path
// to the dense reference scan, bitwise, on a slow-spreading path graph
// (stays sparse for many steps) and a fast-spreading BA graph (crosses
// into dense mode).
func TestEquivalenceSparseStepDense(t *testing.T) {
	path, err := gen.Path(200)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := gen.BarabasiAlbert(300, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"path": path, "ba": ba} {
		for _, lazy := range []bool{false, true} {
			d, err := NewDistribution(g, 0, lazy)
			if err != nil {
				t.Fatal(err)
			}
			ref := newDenseReference(g, 0, lazy)
			for step := 0; step < 60; step++ {
				d.Step()
				ref.step()
				for v, want := range ref.cur {
					if got := d.Probabilities()[v]; got != want {
						t.Fatalf("%s lazy=%v step=%d node=%d: got %x want %x", name, lazy, step, v, got, want)
					}
				}
			}
		}
	}
}

// denseReference replays the pre-kernel unconditional-clear Step so the
// sparse fast path has a frozen reference to diff against.
type denseReference struct {
	g         *graph.Graph
	cur, next []float64
	lazy      bool
}

func newDenseReference(g *graph.Graph, source graph.NodeID, lazy bool) *denseReference {
	r := &denseReference{
		g: g, lazy: lazy,
		cur:  make([]float64, g.NumNodes()),
		next: make([]float64, g.NumNodes()),
	}
	r.cur[source] = 1
	return r
}

func (r *denseReference) step() {
	for i := range r.next {
		r.next[i] = 0
	}
	for v := graph.NodeID(0); int(v) < r.g.NumNodes(); v++ {
		mass := r.cur[v]
		if mass == 0 {
			continue
		}
		ns := r.g.Neighbors(v)
		if len(ns) == 0 {
			r.next[v] += mass
			continue
		}
		if r.lazy {
			r.next[v] += mass / 2
			mass /= 2
		}
		share := mass / float64(len(ns))
		for _, u := range ns {
			r.next[u] += share
		}
	}
	r.cur, r.next = r.next, r.cur
}

// TestEquivalenceMixingRace exercises concurrent curve accumulation under
// the race detector: many sources, more workers than GOMAXPROCS, run a
// few times so goroutine interleavings vary.
func TestEquivalenceMixingRace(t *testing.T) {
	g, err := gen.BarabasiAlbert(200, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := MeasureMixing(context.Background(), g, MixingConfig{
				MaxSteps: 10, Sources: 50, Seed: 3, Workers: 16,
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func mustBA(t *testing.T, n, attach int, seed int64) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(n, attach, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustClusteredPA(t *testing.T, comms, size, attach, bridges int, seed int64) *graph.Graph {
	t.Helper()
	g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{
		Communities: comms, CommunitySize: size, Attach: attach, Bridges: bridges, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}
