package experiments

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/walk"
)

// ViewBenchEntry is one per-epoch churn pipeline timed two ways: the
// historical rebuild-per-epoch path (materialize a degraded CSR with a
// Builder after every epoch advance) against the zero-copy path
// (measure directly on the fault model's MaskedView).
type ViewBenchEntry struct {
	// Name is the pipeline: epoch-graph (epoch advance + degraded-graph
	// derivation only) or epoch-mixing (epoch advance + the Eq. 2 mixing
	// measurement on the degraded topology).
	Name string `json:"name"`
	// Dataset names the graph; Nodes/Edges record its size.
	Dataset string `json:"dataset"`
	Nodes   int    `json:"nodes"`
	Edges   int64  `json:"edges"`
	// Epochs is how many fault epochs each variant advanced through.
	Epochs int `json:"epochs"`
	// RebuildSeconds and ViewSeconds are best-of-Repeats wall times for
	// the rebuild-per-epoch and measure-on-view variants.
	RebuildSeconds float64 `json:"rebuild_seconds"`
	ViewSeconds    float64 `json:"view_seconds"`
	// Speedup is RebuildSeconds / ViewSeconds.
	Speedup float64 `json:"speedup"`
	Repeats int     `json:"repeats"`
	// Identical reports that both variants produced bit-for-bit identical
	// results across every epoch; Fingerprint is the shared FNV-1a digest.
	Identical   bool   `json:"identical"`
	Fingerprint string `json:"fingerprint"`
}

// ViewBenchResult is the zero-copy-views baseline cmd/experiments bench
// writes to out/BENCH_views.json: rebuild-vs-view timings with result
// fingerprints, qualified by the machine fields.
type ViewBenchResult struct {
	GoVersion  string           `json:"go_version"`
	NumCPU     int              `json:"num_cpu"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Quick      bool             `json:"quick"`
	Seed       int64            `json:"seed"`
	UnixTime   int64            `json:"unix_time"`
	Entries    []ViewBenchEntry `json:"entries"`
}

// Identical reports whether every entry's rebuild and view fingerprints
// agreed; callers treat false as a failure — the schedules are drawn from
// the same seeds, so any divergence is a masking bug, not noise.
func (r *ViewBenchResult) Identical() bool {
	for _, e := range r.Entries {
		if !e.Identical {
			return false
		}
	}
	return true
}

// benchViewsFaultConfig is the per-epoch fault schedule both variants
// replay: enough churn and edge loss that the masked topology differs
// substantially from the substrate every epoch.
func benchViewsFaultConfig(seed int64) faults.Config {
	return faults.Config{Churn: 0.1, EdgeLoss: 0.05, Seed: seed}
}

// rebuildDegraded is the historical per-epoch derivation: a full Builder
// pass (copy every surviving edge, then the O(m log m) sort/dedupe build)
// producing a standalone degraded CSR.
func rebuildDegraded(m *faults.Model) *graph.Graph {
	b := graph.NewBuilder(m.Graph().NumNodes())
	m.View().VisitEdges(func(e graph.Edge) bool {
		b.AddEdgeSafe(e.U, e.V)
		return true
	})
	return b.Build()
}

// epochDigest folds one epoch's degraded topology into h: edge count plus
// every node degree. Both variants digest the same quantities, so the
// digest cost is symmetric and the fingerprint certifies the view's
// incremental degree bookkeeping against a from-scratch rebuild.
func epochDigest(h interface{ Write(p []byte) (int, error) }, v graph.View) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v.NumEdges()))
	h.Write(buf[:])
	n := v.NumNodes()
	for u := 0; u < n; u++ {
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Degree(graph.NodeID(u))))
		h.Write(buf[:])
	}
}

// BenchViews times the per-epoch churn pipeline with and without the
// zero-copy MaskedView on the 10⁴-node synthetic graph. epoch-graph
// isolates the derivation cost the views remove (rebuild: O(m log m)
// Builder per epoch; view: nothing — the epoch draw already maintains the
// masked topology); epoch-mixing runs the full measure-per-epoch loop the
// churn experiments execute, where the view path materializes at most one
// cached CSR per epoch for the batched kernels. Both variants replay
// identical fault schedules and must produce bit-identical results.
func BenchViews(ctx context.Context, opts Options, repeats int) (*ViewBenchResult, error) {
	opts.fill()
	if repeats < 1 {
		repeats = 1
	}
	g, err := benchGraph()
	if err != nil {
		return nil, fmt.Errorf("experiments: bench views: %w", err)
	}

	res := &ViewBenchResult{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      opts.Quick,
		Seed:       opts.Seed,
		UnixTime:   time.Now().Unix(),
	}
	fcfg := benchViewsFaultConfig(opts.Seed)

	// Epoch advance + degraded-graph derivation, no measurement.
	graphEpochs := opts.pick(8, 32)
	graphVariant := func(rebuild bool) (string, error) {
		m, err := faults.New(g, fcfg)
		if err != nil {
			return "", err
		}
		h := fnv.New64a()
		for e := 0; e < graphEpochs; e++ {
			if e > 0 {
				m.AdvanceEpoch()
			}
			if rebuild {
				epochDigest(h, rebuildDegraded(m))
			} else {
				epochDigest(h, m.View())
			}
		}
		return fmt.Sprintf("%016x", h.Sum64()), nil
	}
	graphEntry := ViewBenchEntry{
		Name: "epoch-graph", Dataset: "ba-10k",
		Nodes: g.NumNodes(), Edges: g.NumEdges(),
		Epochs: graphEpochs, Repeats: repeats,
	}
	if err := timeViewVariants(&graphEntry, repeats,
		func() (string, error) { return graphVariant(true) },
		func() (string, error) { return graphVariant(false) },
	); err != nil {
		return nil, fmt.Errorf("experiments: bench epoch-graph: %w", err)
	}
	res.Entries = append(res.Entries, graphEntry)

	// Epoch advance + mixing measurement on the degraded topology — the
	// shape of the churn experiments' inner loop.
	mixEpochs := opts.pick(2, 6)
	mixCfg := walk.MixingConfig{
		MaxSteps: opts.pick(8, 20),
		Sources:  opts.pick(8, 32),
		Seed:     opts.Seed,
		Workers:  opts.Workers,
	}
	mixVariant := func(rebuild bool) (string, error) {
		m, err := faults.New(g, fcfg)
		if err != nil {
			return "", err
		}
		h := fnv.New64a()
		for e := 0; e < mixEpochs; e++ {
			if e > 0 {
				m.AdvanceEpoch()
			}
			var target graph.View = m.View()
			if rebuild {
				target = rebuildDegraded(m)
			}
			mr, err := walk.MeasureMixing(ctx, target, mixCfg)
			if err != nil {
				return "", err
			}
			fmt.Fprint(h, jobs.MixingFingerprint(mr))
		}
		return fmt.Sprintf("%016x", h.Sum64()), nil
	}
	mixEntry := ViewBenchEntry{
		Name: "epoch-mixing", Dataset: "ba-10k",
		Nodes: g.NumNodes(), Edges: g.NumEdges(),
		Epochs: mixEpochs, Repeats: repeats,
	}
	if err := timeViewVariants(&mixEntry, repeats,
		func() (string, error) { return mixVariant(true) },
		func() (string, error) { return mixVariant(false) },
	); err != nil {
		return nil, fmt.Errorf("experiments: bench epoch-mixing: %w", err)
	}
	res.Entries = append(res.Entries, mixEntry)
	return res, nil
}

// timeViewVariants times the rebuild and view variants of one entry (best
// of repeats each) and records the speedup and fingerprint agreement.
func timeViewVariants(e *ViewBenchEntry, repeats int, rebuild, view func() (string, error)) error {
	rebuildSec, rebuildFP, err := timeVariant(rebuild, repeats)
	if err != nil {
		return err
	}
	viewSec, viewFP, err := timeVariant(view, repeats)
	if err != nil {
		return err
	}
	e.RebuildSeconds, e.ViewSeconds = rebuildSec, viewSec
	if viewSec > 0 {
		e.Speedup = rebuildSec / viewSec
	}
	e.Identical = rebuildFP == viewFP
	e.Fingerprint = viewFP
	return nil
}
