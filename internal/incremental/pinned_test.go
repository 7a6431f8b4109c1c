package incremental

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/trustnet/trustnet/internal/expansion"
	"github.com/trustnet/trustnet/internal/faults"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/spectral"
)

// enginePinnedFile holds one line per epoch of the engine state
// TestEngineStatePinned renders.
const enginePinnedFile = "testdata/engine_pinned.txt"

// enginePinnedSourceSeed is the seed perfbench's epochs workload samples
// its 1,024 envelope sources with (streamSeed(1, 3) there).
const enginePinnedSourceSeed = 8513542685296429273

// TestEngineStatePinned runs the engine at perfbench's epochs
// configuration — the clustered 50×200 graph (attach 8, 4 bridges, seed
// 97), its drifting fault schedule, 1,024 sampled sources and a 1e-8
// SLEM tolerance — and compares the state after epochs 1–10 with
// enginePinnedFile: digests of the engine's coreness and of the
// envelope's level sequences, the bits of the warm μ and of its Ritz
// residual, and the Lanczos step count. It runs the window at 1, 2 and
// 3 workers (EngineConfig.Workers and Spectral.Workers) against the one
// table, since the state must not depend on which worker ran what. A
// change that moves a pin says why in CHANGES.md and updates the file
// with the table this test prints.
func TestEngineStatePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the pins hold on amd64; on %s the compiler may fuse x*y + z into one FMA, which moves float bits", runtime.GOARCH)
	}
	data, err := os.ReadFile(enginePinnedFile)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if !strings.HasPrefix(line, "#") && strings.TrimSpace(line) != "" {
			want.WriteString(line)
		}
	}
	g, sources := epochsInputs(t)
	ctx := context.Background()
	for _, workers := range []int{1, 2, 3} {
		en := newEpochsEngine(t, g, sources, workers)
		var b strings.Builder
		for epoch := 1; epoch <= 10; epoch++ {
			en.Advance()
			meas, err := en.Measure(ctx)
			if err != nil {
				t.Fatal(err)
			}
			cores := make([]int64, len(en.Cores()))
			for v, c := range en.Cores() {
				cores[v] = int64(c)
			}
			fmt.Fprintf(&b, "epoch %d cores %016x levels %016x mu %016x residual %016x steps %d\n",
				epoch, pinDigest([][]int64{cores}), pinDigest(meas.Expansion.Checkpoint().Levels),
				math.Float64bits(meas.SLEM.SLEM), math.Float64bits(meas.SLEM.Residual), meas.SLEM.Iterations)
		}
		if got := b.String(); got != want.String() {
			t.Errorf("engine state moved at %d workers; pinned:\n%s\nnow:\n%s", workers, want.String(), got)
		}
	}
}

// epochsInputs returns perfbench epochs' graph, the clustered 50×200
// graph of the epoch sweep, and its 1,024 envelope sources.
func epochsInputs(tb testing.TB) (*graph.Graph, []graph.NodeID) {
	tb.Helper()
	g, _, err := gen.ClusteredPA(gen.ClusteredPAConfig{Communities: 50, CommunitySize: 200, Attach: 8, Bridges: 4, Seed: 97})
	if err != nil {
		tb.Fatal(err)
	}
	sources, err := expansion.SampledSources(g, 1024, enginePinnedSourceSeed)
	if err != nil {
		tb.Fatal(err)
	}
	return g, sources
}

// newEpochsEngine builds an engine over g at perfbench epochs' drifting
// fault schedule and SLEM config, at workers for the engine and the
// SLEM, and measures epoch 0 as perfbench's set-up does, so that epoch
// 1's SLEM starts warm from the same vector.
func newEpochsEngine(tb testing.TB, g *graph.Graph, sources []graph.NodeID, workers int) *Engine {
	tb.Helper()
	m, err := faults.New(g, faults.Config{Churn: 0.1, EdgeLoss: 0.05, Drift: 0.005, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	en, err := NewEngine(m, EngineConfig{Sources: sources, Workers: workers,
		Spectral: spectral.Config{Tolerance: 1e-8, Seed: 1, Workers: workers}})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := en.Measure(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return en
}

// pinDigest folds integer sequences into one FNV-1a word, each sequence
// prefixed by its length.
func pinDigest(seqs [][]int64) uint64 {
	h := fnv.New64a()
	var w [8]byte
	for _, seq := range seqs {
		binary.LittleEndian.PutUint64(w[:], uint64(len(seq)))
		h.Write(w[:])
		for _, x := range seq {
			binary.LittleEndian.PutUint64(w[:], uint64(x))
			h.Write(w[:])
		}
	}
	return h.Sum64()
}
