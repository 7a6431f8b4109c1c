// Quickstart: build a social graph, measure the three properties the
// paper studies (mixing time, expansion, core structure), and print a
// one-page summary.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/trustnet/trustnet/internal/core"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Build a graph. Any simple undirected graph works: load one with
	// graph.LoadEdgeList, or generate one. Here: a 2000-node
	// preferential-attachment graph, the classic fast-mixing OSN shape.
	g, err := gen.BarabasiAlbert(2000, 6, 42)
	if err != nil {
		return err
	}
	fmt.Printf("graph: %d nodes, %d edges, max degree %d, avg degree %.1f\n\n",
		g.NumNodes(), g.NumEdges(), g.MaxDegree(), g.AverageDegree())

	// 2. Run the measurement suite. Everything is seeded and
	// deterministic; MeasureConfig's zero values pick the catalog
	// defaults that trustnetd and cmd/measure use too.
	rep, err := core.Measure(context.Background(), "quickstart", g, core.MeasureConfig{})
	if err != nil {
		return err
	}

	// 3. Read the results.
	fmt.Printf("mixing:    SLEM mu = %.4f; Sinclair bounds %.0f..%.0f steps at eps=%.1e\n",
		rep.SLEM, rep.Bounds.Lower, rep.Bounds.Upper, rep.Epsilon)
	if rep.MixedWithinBudget {
		fmt.Printf("           sampling method: T(eps) = %d steps\n", rep.MixingTime)
	} else {
		fmt.Printf("           sampling method: did not reach eps within budget\n")
	}
	fmt.Printf("cores:     degeneracy %d, top core holds %.0f%% of nodes in %d component(s)\n",
		rep.Cores.Degeneracy, 100*rep.Cores.TopCoreNu, rep.Cores.TopCoreComponents)
	fmt.Printf("expansion: min alpha %.4f, mean alpha over small sets %.2f\n\n",
		rep.Expansion.MinAlpha, rep.Expansion.MeanAlphaSmallSets)

	// 4. The paper's punchline, as a library call: a fast mixer has one
	// big core and good expansion, so mixing-time and expansion-based
	// Sybil defenses both apply.
	fastMixer := rep.MixedWithinBudget && rep.Cores.TopCoreComponents == 1
	fmt.Printf("verdict: fast mixer with a single dense core: %v\n", fastMixer)
	_ = graph.IsConnected // (see examples/mixingaudit for the defense-side decision)
	return nil
}
