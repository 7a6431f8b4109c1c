// Command measure runs the paper's property measurements on a graph: the
// mixing time (sampling method), the SLEM spectral bound, the k-core
// structure, and the expansion — individually or as the full suite.
//
// Usage:
//
//	measure -in graph.txt all
//	measure -dataset wiki-vote mixing
//	measure -dataset physics-1 -eps 0.01 slem cores expansion
//	measure -dataset wiki-vote centrality community
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/trustnet/trustnet/internal/centrality"
	"github.com/trustnet/trustnet/internal/community"
	"github.com/trustnet/trustnet/internal/core"
	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "measure:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("measure", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "edge-list file to measure")
		dataset = fs.String("dataset", "", "registry dataset to measure instead of -in")
		eps     = fs.Float64("eps", 0, "variation distance target (default 1/n)")
		sources = fs.Int("sources", 50, "sampled walk sources for the mixing measurement")
		steps   = fs.Int("steps", 200, "max walk length for the mixing measurement")
		expSrc  = fs.Int("expansion-sources", 0, "sampled BFS cores for expansion (0 = all nodes)")
		specTol = fs.Float64("spectral-tol", 0, "SLEM tolerance: the Lanczos iteration stops once mu moves by less than this in one step (default 1e-7)")
		seed    = fs.Int64("seed", 1, "measurement seed")
		shards  = fs.Int("shards", 1, "measure over a node-range-sharded view (results are identical at any shard count)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	what := fs.Args()
	if len(what) == 0 {
		what = []string{"all"}
	}
	// The flag parser stops at the first name, so a flag after it lands
	// here too; reject both before the graph is loaded.
	show := map[string]bool{}
	for _, w := range what {
		switch w {
		case "all", "slem", "mixing", "cores", "expansion", "centrality", "community":
			show[w] = true
		default:
			return fmt.Errorf("unknown measurement %q (want all, slem, mixing, cores, expansion, centrality or community; flags go before measurement names)", w)
		}
	}
	if *shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", *shards)
	}

	g, name, err := loadGraph(*in, *dataset)
	if err != nil {
		return err
	}
	if !graph.IsConnected(g) {
		total := g.NumNodes()
		lcc, kept := graph.LargestComponent(g)
		g = lcc
		fmt.Printf("note: graph disconnected; measuring largest component (%d of %d nodes)\n",
			len(kept), total)
	}
	if *shards > 1 {
		sg, err := graph.NewSharded(g, *shards)
		if err != nil {
			return err
		}
		g = sg
	}

	rep, err := core.Measure(context.Background(), name, g, core.Config{
		MixingSources:     *sources,
		MixingMaxSteps:    *steps,
		Epsilon:           *eps,
		ExpansionSources:  *expSrc,
		SpectralTolerance: *specTol,
		Seed:              *seed,
	})
	if err != nil {
		return err
	}

	all := show["all"]

	// The canonical topology digest (identical at any shard count) lets
	// operators tie this output to cached experiment artifacts.
	fmt.Printf("graph %s: n=%d m=%d fingerprint=%s\n\n", rep.Name, rep.Nodes, rep.Edges, graph.Fingerprint(g))
	if all || show["slem"] {
		fmt.Printf("SLEM mu = %.6f\n", rep.SLEM)
		fmt.Printf("Sinclair bounds at eps=%.2e: %.1f <= T <= %.1f\n\n",
			rep.Epsilon, rep.Bounds.Lower, rep.Bounds.Upper)
	}
	if all || show["mixing"] {
		if rep.MixedWithinBudget {
			fmt.Printf("sampling-method mixing time T(%.2e) = %d steps (worst of %d sources)\n",
				rep.Epsilon, rep.MixingTime, len(rep.Mixing.Sources))
		} else {
			fmt.Printf("graph did not mix to eps=%.2e within %d steps (final worst TVD %.4f)\n",
				rep.Epsilon, len(rep.Mixing.MaxTVD), rep.Mixing.MaxTVD[len(rep.Mixing.MaxTVD)-1])
		}
		t := report.NewTable("", "walk length", "min TVD", "mean TVD", "max TVD")
		for _, i := range []int{0, 1, 3, 7, 15, 31, 63, 127, 199} {
			if i >= len(rep.Mixing.MeanTVD) {
				break
			}
			if err := t.AddRow(report.Int(i+1),
				report.Float(rep.Mixing.MinTVD[i], 4),
				report.Float(rep.Mixing.MeanTVD[i], 4),
				report.Float(rep.Mixing.MaxTVD[i], 4)); err != nil {
				return err
			}
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if all || show["cores"] {
		fmt.Printf("degeneracy %d; top core: nu=%.3f nu~=%.3f components=%d; mean coreness %.2f\n\n",
			rep.Cores.Degeneracy, rep.Cores.TopCoreNu, rep.Cores.TopCoreNuTilde,
			rep.Cores.TopCoreComponents, rep.Cores.MeanCoreness)
	}
	if all || show["expansion"] {
		fmt.Printf("expansion: min alpha = %.4f, mean alpha over small sets = %.3f (from %d cores)\n",
			rep.Expansion.MinAlpha, rep.Expansion.MeanAlphaSmallSets, rep.Expansion.Result.Sources)
	}
	if show["centrality"] {
		if err := printCentrality(graph.Materialize(g)); err != nil {
			return err
		}
	}
	if show["community"] {
		if err := printCommunity(graph.Materialize(g), *seed); err != nil {
			return err
		}
	}
	return nil
}

// printCentrality reports the top nodes by betweenness, closeness, and
// PageRank (sampled betweenness above 2000 nodes to stay interactive).
func printCentrality(g *graph.Graph) error {
	ctx := context.Background()
	cfg := centrality.Config{}
	if g.NumNodes() > 2000 {
		cfg.Pivots = 500
	}
	bc, err := centrality.Betweenness(ctx, g, cfg)
	if err != nil {
		return err
	}
	cc, err := centrality.Closeness(ctx, g, centrality.Config{})
	if err != nil {
		return err
	}
	pr, err := centrality.PageRank(g, centrality.PageRankConfig{})
	if err != nil {
		return err
	}
	t := report.NewTable("top-5 nodes per centrality", "Rank", "Betweenness", "Closeness", "PageRank")
	topB := centrality.TopK(bc, 5)
	topC := centrality.TopK(cc, 5)
	topP := centrality.TopK(pr, 5)
	for i := 0; i < 5 && i < len(topB); i++ {
		if err := t.AddRow(report.Int(i+1),
			fmt.Sprintf("%d (%.1f)", topB[i], bc[topB[i]]),
			fmt.Sprintf("%d (%.3f)", topC[i], cc[topC[i]]),
			fmt.Sprintf("%d (%.4f)", topP[i], pr[topP[i]])); err != nil {
			return err
		}
	}
	return t.Render(os.Stdout)
}

// printCommunity reports the label-propagation partition summary.
func printCommunity(g *graph.Graph, seed int64) error {
	labels, err := community.LabelPropagation(g, 100, seed)
	if err != nil {
		return err
	}
	sizes := community.Sizes(labels)
	q, err := community.Modularity(g, labels)
	if err != nil {
		return err
	}
	largest := 0
	for _, s := range sizes {
		if s > largest {
			largest = s
		}
	}
	fmt.Printf("communities: %d (largest %d of %d nodes), modularity Q = %.3f\n",
		len(sizes), largest, g.NumNodes(), q)
	return nil
}

// loadGraph resolves the input: a registry dataset, or a file whose
// format follows its extension — .tng2 is opened as a zero-copy mmap
// view, .bin/.tng1 is imported through the TNG1 edge stream, anything
// else is read as edge-list text.
func loadGraph(in, dataset string) (graph.View, string, error) {
	switch {
	case in != "" && dataset != "":
		return nil, "", fmt.Errorf("use either -in or -dataset, not both")
	case in != "":
		if strings.HasSuffix(in, ".tng2") {
			g, err := graph.OpenMapped(in)
			return g, in, err
		}
		if strings.HasSuffix(in, ".bin") || strings.HasSuffix(in, ".tng1") {
			es, err := gen.StreamTNG1(in)
			if err != nil {
				return nil, "", err
			}
			g, err := gen.Build(es)
			return g, in, err
		}
		g, err := graph.LoadEdgeList(in)
		return g, in, err
	case dataset != "":
		spec, err := datasets.ByName(dataset)
		if err != nil {
			return nil, "", err
		}
		g, err := spec.Generate()
		return g, dataset, err
	default:
		return nil, "", fmt.Errorf("one of -in or -dataset is required")
	}
}
