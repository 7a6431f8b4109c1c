// Command measure runs the paper's measurements on a graph: the four of
// the internal/core catalog that trustnetd serves — mixing (sampled
// mixing time), expansion (BFS envelopes), coreness (k-core structure)
// and slem (the spectral bound) — plus centrality and community
// summaries. Each catalog measurement prints the summary its daemon
// artifact carries, under the same config and defaults; a zero flag
// takes the catalog default.
//
// Usage:
//
//	measure -in graph.txt all
//	measure -dataset wiki-vote mixing
//	measure -dataset physics-1 -eps 0.01 slem coreness expansion
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
	"github.com/trustnet/trustnet/internal/jobs"
	"github.com/trustnet/trustnet/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "measure:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	def := core.MeasureConfig{}.WithDefaults()
	fs := flag.NewFlagSet("measure", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "edge-list file to measure")
		dataset = fs.String("dataset", "", "registry dataset to measure instead of -in")
		eps     = fs.Float64("eps", 0, "variation distance target, in (0, 1) (0 = 1/n)")
		sources = fs.Int("sources", 0, fmt.Sprintf("sampled walk sources for mixing (0 = %d)", def.Sources))
		steps   = fs.Int("steps", 0, fmt.Sprintf("max walk length for mixing (0 = %d)", def.MaxSteps))
		expSrc  = fs.Int("expansion-sources", 0, fmt.Sprintf("sampled BFS cores for expansion; n or more measures from every node (0 = %d)", def.ExpansionSources))
		specTol = fs.Float64("spectral-tol", 0, "SLEM tolerance: the Lanczos iteration stops once mu moves by less than this in one step (0 = the spectral package default)")
		seed    = fs.Int64("seed", 0, fmt.Sprintf("measurement seed (0 = %d)", def.Seed))
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := core.MeasureConfig{
		Seed:             *seed,
		Sources:          *sources,
		MaxSteps:         *steps,
		ExpansionSources: *expSrc,
		Tolerance:        *specTol,
		Epsilon:          *eps,
	}
	// The catalog-only registry validates the config and resolves the
	// names; the flag parser stops at the first name, so a flag after
	// it lands here too. Both fail before the graph is loaded.
	catalog, err := core.Jobs(nil, cfg)
	if err != nil {
		return err
	}
	what := fs.Args()
	if len(what) == 0 {
		what = []string{"all"}
	}
	show := map[string]bool{}
	for _, w := range what {
		switch w {
		case "all":
			for _, name := range catalog.Names() {
				show[name] = true
			}
		case "centrality", "community":
			show[w] = true
		default:
			j, err := catalog.Lookup(w)
			if err != nil {
				return fmt.Errorf("%w; measure also takes all, centrality and community, and flags go before measurement names", err)
			}
			show[j.Name()] = true
		}
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

	// The canonical topology digest lets operators tie this output to
	// cached artifacts.
	fmt.Printf("graph %s: n=%d m=%d fingerprint=%s\n\n", name, g.NumNodes(), g.NumEdges(), graph.Fingerprint(g))
	reg, err := core.Jobs(g, cfg)
	if err != nil {
		return err
	}
	for _, j := range reg.Jobs() {
		if !show[j.Name()] {
			continue
		}
		a, err := j.Run(context.Background(), jobs.Env{})
		if err != nil {
			return fmt.Errorf("%s: %w", j.Name(), err)
		}
		fmt.Println(a.Summary)
	}
	if show["centrality"] {
		if err := printCentrality(graph.Materialize(g)); err != nil {
			return err
		}
	}
	if show["community"] {
		if err := printCommunity(graph.Materialize(g), cfg.WithDefaults().Seed); err != nil {
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
