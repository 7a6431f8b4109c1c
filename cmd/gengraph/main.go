// Command gengraph generates synthetic social graphs — either a named
// dataset stand-in from the Table I registry or a raw model — and writes
// them as edge-list text or TNG2 CSR files. Large graphs can be streamed
// straight to TNG2 in bounded memory, and the convert subcommand
// translates between text and TNG2. TNG1 binary files are import-only:
// convert reads them (streaming TNG1 to TNG2 in bounded memory) but no
// command writes them.
//
// Usage:
//
//	gengraph -dataset wiki-vote -out wiki-vote.txt
//	gengraph -model ba -n 5000 -param 8 -seed 42 -out ba.txt
//	gengraph -model ba -n 1000000 -param 8 -stream -out ba.tng2
//	gengraph convert -in ba.bin -out ba.tng2
//	gengraph -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"github.com/trustnet/trustnet/internal/datasets"
	"github.com/trustnet/trustnet/internal/gen"
	"github.com/trustnet/trustnet/internal/graph"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "convert" {
		return runConvert(args[1:])
	}
	fs := flag.NewFlagSet("gengraph", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list registry datasets and exit")
		dataset = fs.String("dataset", "", "registry dataset name to generate")
		model   = fs.String("model", "", "raw model: ba | gnp | gnm | ws | rmat | sbm | clustered")
		n       = fs.Int("n", 1000, "number of nodes (raw models)")
		param   = fs.Float64("param", 4, "model parameter: attach (ba), p (gnp), m (gnm), k (ws)")
		beta    = fs.Float64("beta", 0.1, "rewiring probability (ws)")
		comms   = fs.Int("communities", 8, "communities (sbm, clustered)")
		bridges = fs.Int("bridges", 2, "bridges per community pair (clustered)")
		seed    = fs.Int64("seed", 1, "generator seed")
		out     = fs.String("out", "", "output path (default stdout, text only)")
		format  = fs.String("format", "", "output format: text | tng2 (default inferred from -out extension)")
		stream  = fs.Bool("stream", false, "stream the generator through the bounded-memory CSR writer (ba, rmat, sbm, clustered; implies tng2, requires -out)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, spec := range datasets.All() {
			fmt.Printf("%-14s %-12s band=%-6s paper n=%d m=%d\n",
				spec.Name, spec.Class, spec.Band, spec.PaperNodes, spec.PaperEdges)
		}
		return nil
	}

	if *stream {
		if *out == "" {
			return fmt.Errorf("-stream requires -out")
		}
		if *format != "" && *format != "tng2" {
			return fmt.Errorf("-stream writes tng2, not %q", *format)
		}
		es, err := buildStream(*dataset, *model, *n, *param, *comms, *bridges, *seed)
		if err != nil {
			return err
		}
		st, err := gen.StreamToFile(es, *out)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d nodes, %d edges (%d spill runs, %d spilled bytes)\n",
			*out, st.Nodes, st.Edges, st.Runs, st.SpilledBytes)
		return nil
	}

	f, err := resolveFormat(*format, *out)
	if err != nil {
		return err
	}
	if f == "tng1" {
		return errTNG1Output
	}
	if *out == "" && f != "text" {
		return fmt.Errorf("format %s requires -out", f)
	}
	g, err := buildGraph(*dataset, *model, *n, *param, *beta, *comms, *bridges, *seed)
	if err != nil {
		return err
	}
	if *out == "" {
		return graph.WriteEdgeList(os.Stdout, g)
	}
	if f == "text" {
		err = graph.SaveEdgeList(*out, g)
	} else {
		err = graph.SaveCSR(*out, g)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d nodes, %d edges\n", *out, g.NumNodes(), g.NumEdges())
	return nil
}

// errTNG1Output rejects TNG1 as an output format.
var errTNG1Output = errors.New("tng1 is import-only; write tng2 instead")

// resolveFormat picks a file's format: an explicit override wins, then
// the path extension (.bin/.tng1 binary, .tng2 CSR), then text. Callers
// choosing an output format reject tng1 with errTNG1Output.
func resolveFormat(format, path string) (string, error) {
	switch format {
	case "text", "tng1", "tng2":
		return format, nil
	case "":
	default:
		return "", fmt.Errorf("unknown format %q (want text, tng1, or tng2)", format)
	}
	switch filepath.Ext(path) {
	case ".bin", ".tng1":
		return "tng1", nil
	case ".tng2":
		return "tng2", nil
	}
	return "text", nil
}

// buildStream resolves the streamed models; buildGraph builds them in
// memory through the same mapping from flags to configs.
func buildStream(dataset, model string, n int, param float64, comms, bridges int, seed int64) (gen.EdgeStream, error) {
	if dataset != "" {
		return nil, fmt.Errorf("-stream works with -model, not -dataset")
	}
	switch model {
	case "ba":
		return gen.StreamBA(n, int(param), seed)
	case "rmat":
		scale := 0
		for 1<<scale < n {
			scale++
		}
		return gen.StreamRMAT(gen.RMATConfig{
			Scale: scale, Edges: int64(param),
			A: 0.57, B: 0.19, C: 0.19, Noise: 0.1, Seed: seed,
		})
	case "sbm":
		sizes := make([]int, comms)
		for i := range sizes {
			sizes[i] = n / comms
		}
		return gen.StreamSBM(gen.SBMConfig{BlockSizes: sizes, PIn: param, POut: param / 50, Seed: seed})
	case "clustered":
		return gen.StreamClusteredPA(gen.ClusteredPAConfig{
			Communities:   comms,
			CommunitySize: n / comms,
			Attach:        int(param),
			Bridges:       bridges,
			Seed:          seed,
		})
	case "":
		return nil, fmt.Errorf("-stream requires -model")
	case "gnp", "gnm", "ws":
		return nil, fmt.Errorf("model %q has no streaming generator (want ba, rmat, sbm, or clustered)", model)
	default:
		return nil, fmt.Errorf("unknown model %q", model)
	}
}

// runConvert translates a graph file to text or TNG2. A TNG1 input
// converts to TNG2 through the CSR writer in bounded memory (one
// checksum-validating pass for the node count, one for the edges);
// every other direction loads the graph once.
func runConvert(args []string) error {
	fs := flag.NewFlagSet("gengraph convert", flag.ContinueOnError)
	var (
		in   = fs.String("in", "", "input graph file")
		out  = fs.String("out", "", "output graph file")
		from = fs.String("from", "", "input format override: text | tng1 | tng2")
		to   = fs.String("to", "", "output format override: text | tng2")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("convert requires -in and -out")
	}
	src, err := resolveFormat(*from, *in)
	if err != nil {
		return err
	}
	dst, err := resolveFormat(*to, *out)
	if err != nil {
		return err
	}
	if dst == "tng1" {
		return errTNG1Output
	}

	var g *graph.Graph
	switch src {
	case "text":
		g, err = graph.LoadEdgeList(*in)
	case "tng1":
		var es gen.EdgeStream
		if es, err = gen.StreamTNG1(*in); err != nil {
			return err
		}
		if dst == "tng2" {
			st, err := gen.StreamToFile(es, *out)
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s: %d nodes, %d edges (streamed)\n", *out, st.Nodes, st.Edges)
			return nil
		}
		g, err = gen.Build(es)
	case "tng2":
		var mg *graph.Mapped
		if mg, err = graph.OpenMapped(*in); err != nil {
			return err
		}
		defer mg.Close()
		g = mg.CSR()
	}
	if err != nil {
		return err
	}
	if dst == "text" {
		err = graph.SaveEdgeList(*out, g)
	} else {
		err = graph.SaveCSR(*out, g)
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d nodes, %d edges\n", *out, g.NumNodes(), g.NumEdges())
	return nil
}

func buildGraph(dataset, model string, n int, param, beta float64, comms, bridges int, seed int64) (*graph.Graph, error) {
	switch {
	case dataset != "" && model != "":
		return nil, fmt.Errorf("use either -dataset or -model, not both")
	case dataset != "":
		spec, err := datasets.ByName(dataset)
		if err != nil {
			return nil, err
		}
		return spec.Generate()
	case model == "gnp":
		return gen.GNP(n, param, seed)
	case model == "gnm":
		return gen.GNM(n, int64(param), seed)
	case model == "ws":
		return gen.WattsStrogatz(n, int(param), beta, seed)
	case model == "":
		return nil, fmt.Errorf("one of -dataset, -model, or -list is required")
	}
	es, err := buildStream("", model, n, param, comms, bridges, seed)
	if err != nil {
		return nil, err
	}
	return gen.Build(es)
}
