package gen

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"

	"github.com/trustnet/trustnet/internal/graph"
)

// EdgeStream is a generator that emits its edge multiset through a
// callback instead of accumulating it in a Builder. Streams never yield
// self loops but may yield duplicate edges (the consumer deduplicates);
// every stream is deterministic: repeated Edges calls replay the
// identical sequence from a fresh seeded rng. The streams are the
// definitions of their models: BarabasiAlbert, RMAT, SBM and
// ClusteredPA are Build over them. Combined with graph.CSRWriter the
// peak memory of generate-to-TNG2 is O(sampler state + sort buffer)
// instead of the O(m) edge slice and arc arrays Builder holds.
type EdgeStream interface {
	// NumNodes returns the node-set size of the generated graph.
	NumNodes() int
	// Edges replays the edge sequence into yield; a yield error aborts
	// the stream and is returned verbatim.
	Edges(yield func(u, v graph.NodeID) error) error
}

// StreamCSR drains an edge stream through an external-sort CSRWriter and
// writes the finished TNG2 image to out — the bounded-memory generation
// path for 10^6+-node graphs.
func StreamCSR(es EdgeStream, out io.Writer, cfg graph.CSRWriterConfig) (graph.CSRStats, error) {
	w, err := graph.NewCSRWriter(es.NumNodes(), cfg)
	if err != nil {
		return graph.CSRStats{}, err
	}
	defer w.Close()
	if err := es.Edges(w.AddEdge); err != nil {
		return graph.CSRStats{}, fmt.Errorf("gen: stream edges: %w", err)
	}
	st, err := w.Finish(out)
	if err != nil {
		return graph.CSRStats{}, err
	}
	if cerr := w.Close(); cerr != nil {
		return st, fmt.Errorf("gen: stream cleanup: %w", cerr)
	}
	return st, nil
}

// Build materializes an edge stream into an in-memory graph through a
// Builder. The eager BarabasiAlbert, RMAT, SBM and ClusteredPA are
// Build over their streams, and Build over StreamTNG1 loads a TNG1 file.
func Build(es EdgeStream) (*graph.Graph, error) {
	b := graph.NewBuilder(es.NumNodes())
	err := es.Edges(func(u, v graph.NodeID) error {
		b.AddEdgeSafe(u, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// baStream is the Barabási–Albert construction.
type baStream struct {
	n, attach int
	seed      int64
}

// StreamBA returns the streaming Barabási–Albert generator that
// BarabasiAlbert(n, attach, seed) builds. The degree-proportional
// endpoint array (2m entries) is the only O(m) state — no edge slice;
// each new node's attach targets are sorted among themselves, which is
// the only sort.
func StreamBA(n, attach int, seed int64) (EdgeStream, error) {
	if attach < 1 {
		return nil, fmt.Errorf("gen: barabasi-albert needs attach >= 1, got %d", attach)
	}
	if n <= attach {
		return nil, fmt.Errorf("gen: barabasi-albert needs n > attach, got n=%d attach=%d", n, attach)
	}
	return &baStream{n: n, attach: attach, seed: seed}, nil
}

func (s *baStream) NumNodes() int { return s.n }

func (s *baStream) Edges(yield func(u, v graph.NodeID) error) error {
	rng := rand.New(rand.NewSource(s.seed))
	// repeated holds one entry per half-edge endpoint, so uniform sampling
	// from it is degree-proportional sampling.
	repeated := make([]graph.NodeID, 0, 2*s.attach*s.n)
	seedSize := s.attach + 1
	for i := 0; i < seedSize; i++ {
		for j := i + 1; j < seedSize; j++ {
			if err := yield(graph.NodeID(i), graph.NodeID(j)); err != nil {
				return err
			}
			repeated = append(repeated, graph.NodeID(i), graph.NodeID(j))
		}
	}
	targets := make([]graph.NodeID, 0, s.attach)
	for v := seedSize; v < s.n; v++ {
		// Draw until there are attach distinct targets; a scan of the
		// at most attach drawn so far drops repeats.
		targets = targets[:0]
		for len(targets) < s.attach {
			if u := repeated[rng.Intn(len(repeated))]; !slices.Contains(targets, u) {
				targets = append(targets, u)
			}
		}
		// Yield in ascending order: the order of appends to `repeated`
		// feeds back into later degree-proportional draws.
		slices.Sort(targets)
		for _, u := range targets {
			if err := yield(graph.NodeID(v), u); err != nil {
				return err
			}
			repeated = append(repeated, graph.NodeID(v), u)
		}
	}
	return nil
}

// rmatStream is the R-MAT construction.
type rmatStream struct {
	cfg RMATConfig
}

// StreamRMAT returns the streaming R-MAT generator that RMAT(cfg)
// builds, with O(1) generator state.
func StreamRMAT(cfg RMATConfig) (EdgeStream, error) {
	if cfg.Scale < 1 || cfg.Scale > 24 {
		return nil, fmt.Errorf("gen: rmat scale %d out of [1,24]", cfg.Scale)
	}
	if cfg.Edges < 1 {
		return nil, fmt.Errorf("gen: rmat needs >= 1 edge, got %d", cfg.Edges)
	}
	d := 1 - cfg.A - cfg.B - cfg.C
	if cfg.A < 0 || cfg.B < 0 || cfg.C < 0 || d < 0 {
		return nil, fmt.Errorf("gen: rmat probabilities (%v,%v,%v,%v) invalid", cfg.A, cfg.B, cfg.C, d)
	}
	if cfg.Noise < 0 || cfg.Noise >= 0.5 {
		return nil, fmt.Errorf("gen: rmat noise %v out of [0,0.5)", cfg.Noise)
	}
	return &rmatStream{cfg: cfg}, nil
}

func (s *rmatStream) NumNodes() int { return 1 << s.cfg.Scale }

func (s *rmatStream) Edges(yield func(u, v graph.NodeID) error) error {
	cfg := s.cfg
	d := 1 - cfg.A - cfg.B - cfg.C
	rng := rand.New(rand.NewSource(cfg.Seed))
	for e := int64(0); e < cfg.Edges; e++ {
		u, v := 0, 0
		for bit := cfg.Scale - 1; bit >= 0; bit-- {
			a1, b1, c1 := cfg.A, cfg.B, cfg.C
			if cfg.Noise > 0 {
				// Multiplicative noise, renormalized.
				a1 = noisy(a1, cfg.Noise, rng)
				b1 = noisy(b1, cfg.Noise, rng)
				c1 = noisy(c1, cfg.Noise, rng)
				d1 := noisy(d, cfg.Noise, rng)
				total := a1 + b1 + c1 + d1
				a1, b1, c1 = a1/total, b1/total, c1/total
			}
			r := rng.Float64()
			switch {
			case r < a1:
				// top-left: nothing to add
			case r < a1+b1:
				v |= 1 << bit
			case r < a1+b1+c1:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u == v {
			continue // streams never yield self loops
		}
		if err := yield(graph.NodeID(u), graph.NodeID(v)); err != nil {
			return err
		}
	}
	return nil
}

// noisy returns p scaled by a factor drawn uniformly from
// [1-noise, 1+noise). Each float64 conversion rounds its product on its
// own, so that no architecture fuses the product into an addition, in
// here or in the caller the function inlines into (Go may fuse x*y + z
// into one multiply-add, and arm64 does), and the stream is the same
// everywhere.
func noisy(p, noise float64, rng *rand.Rand) float64 {
	r := float64(rng.Float64())
	u := float64(2*r) - 1
	return float64(p * (1 + float64(noise*u)))
}

// sbmStream is the stochastic-block-model construction.
type sbmStream struct {
	cfg    SBMConfig
	n      int
	starts []int
}

// StreamSBM returns the streaming stochastic-block-model generator
// that SBM(cfg) builds, with O(1) generator state per block pair.
func StreamSBM(cfg SBMConfig) (EdgeStream, error) {
	if len(cfg.BlockSizes) == 0 {
		return nil, fmt.Errorf("gen: sbm needs at least one block")
	}
	for i, s := range cfg.BlockSizes {
		if s < 1 {
			return nil, fmt.Errorf("gen: sbm block %d has size %d", i, s)
		}
	}
	if cfg.PIn < 0 || cfg.PIn > 1 || cfg.POut < 0 || cfg.POut > 1 {
		return nil, fmt.Errorf("gen: sbm probabilities out of [0,1]: pin=%v pout=%v", cfg.PIn, cfg.POut)
	}
	st := &sbmStream{cfg: cfg, starts: make([]int, len(cfg.BlockSizes)+1)}
	for i, s := range cfg.BlockSizes {
		st.starts[i+1] = st.starts[i] + s
	}
	st.n = st.starts[len(cfg.BlockSizes)]
	return st, nil
}

func (s *sbmStream) NumNodes() int { return s.n }

func (s *sbmStream) Edges(yield func(u, v graph.NodeID) error) error {
	cfg := s.cfg
	starts := s.starts
	rng := rand.New(rand.NewSource(cfg.Seed))
	var yerr error
	sampleBlockPair := func(rowStart, rowEnd, colStart, colEnd int, p float64, diag bool) {
		if yerr != nil || p <= 0 {
			return
		}
		// Bernoulli sampling with geometric skipping over the (implicit)
		// pair enumeration, mirroring GNP.
		logQ := math.Log(1 - p)
		if p >= 1 {
			for u := rowStart; u < rowEnd; u++ {
				cs := colStart
				if diag {
					cs = u + 1
				}
				for v := cs; v < colEnd; v++ {
					if yerr = yield(graph.NodeID(u), graph.NodeID(v)); yerr != nil {
						return
					}
				}
			}
			return
		}
		var total int64
		rows := int64(rowEnd - rowStart)
		cols := int64(colEnd - colStart)
		if diag {
			total = rows * (rows - 1) / 2
		} else {
			total = rows * cols
		}
		idx := int64(-1)
		for {
			// The conversion keeps rng.Float64's scaling multiply out of
			// a fused multiply-subtract (see noisy).
			skip := int64(math.Log(1-float64(rng.Float64()))/logQ) + 1
			idx += skip
			if idx >= total {
				return
			}
			var u, v int
			if diag {
				u, v = pairFromIndex(idx, rowEnd-rowStart)
				u += rowStart
				v += rowStart
			} else {
				u = rowStart + int(idx/cols)
				v = colStart + int(idx%cols)
			}
			if yerr = yield(graph.NodeID(u), graph.NodeID(v)); yerr != nil {
				return
			}
		}
	}
	for i := range cfg.BlockSizes {
		sampleBlockPair(starts[i], starts[i+1], starts[i], starts[i+1], cfg.PIn, true)
		for j := i + 1; j < len(cfg.BlockSizes); j++ {
			sampleBlockPair(starts[i], starts[i+1], starts[j], starts[j+1], cfg.POut, false)
		}
	}
	return yerr
}

// clusteredStream is the clustered preferential-attachment construction.
type clusteredStream struct {
	cfg       ClusteredPAConfig
	periphery int
	nucleus   int
	n         int
}

// StreamClusteredPA returns the streaming clustered preferential-
// attachment generator that ClusteredPA(cfg) builds. Each community's
// nucleus is a StreamBA stream shifted to the community's IDs, so the
// working set is one community's endpoint array, not the whole graph
// (BA streams yield no self loops or duplicate edges, and every
// consumer canonicalizes the order); peripheral attachments and ring
// bridges follow from one outer rng.
func StreamClusteredPA(cfg ClusteredPAConfig) (EdgeStream, error) {
	if cfg.Communities < 2 {
		return nil, fmt.Errorf("gen: clustered-pa needs >= 2 communities, got %d", cfg.Communities)
	}
	if cfg.Bridges < 1 {
		return nil, fmt.Errorf("gen: clustered-pa needs >= 1 bridge, got %d", cfg.Bridges)
	}
	if cfg.Periphery < 0 {
		return nil, fmt.Errorf("gen: clustered-pa periphery %d must be >= 0", cfg.Periphery)
	}
	periphery := cfg.Periphery
	if periphery == 0 {
		periphery = cfg.CommunitySize / 5
		if periphery < 2*cfg.Bridges {
			periphery = 2 * cfg.Bridges
		}
	}
	if periphery < 2*cfg.Bridges {
		return nil, fmt.Errorf("gen: clustered-pa periphery %d must be >= 2·bridges (%d) so no peripheral node carries two bridges",
			periphery, 2*cfg.Bridges)
	}
	nucleus := cfg.CommunitySize - periphery
	if nucleus <= cfg.Attach {
		return nil, fmt.Errorf("gen: clustered-pa nucleus size %d must exceed attach %d (community size %d, periphery %d)",
			nucleus, cfg.Attach, cfg.CommunitySize, periphery)
	}
	return &clusteredStream{
		cfg:       cfg,
		periphery: periphery,
		nucleus:   nucleus,
		n:         cfg.Communities * cfg.CommunitySize,
	}, nil
}

func (s *clusteredStream) NumNodes() int { return s.n }

func (s *clusteredStream) Edges(yield func(u, v graph.NodeID) error) error {
	cfg := s.cfg
	rng := rand.New(rand.NewSource(cfg.Seed))
	for c := 0; c < cfg.Communities; c++ {
		base := c * cfg.CommunitySize
		nucleus, err := StreamBA(s.nucleus, cfg.Attach, cfg.Seed+int64(c)+1)
		if err != nil {
			return fmt.Errorf("clustered-pa community %d: %w", c, err)
		}
		off := graph.NodeID(base)
		if err := nucleus.Edges(func(u, v graph.NodeID) error { return yield(u+off, v+off) }); err != nil {
			return err
		}
		// Peripheral nodes occupy IDs [base+nucleus, base+CommunitySize);
		// each attaches to one random nucleus member (degree 1 before
		// bridges, at most 2 after, so coreness stays below Attach).
		for p := 0; p < s.periphery; p++ {
			pv := graph.NodeID(base + s.nucleus + p)
			if err := yield(pv, graph.NodeID(base+rng.Intn(s.nucleus))); err != nil {
				return err
			}
		}
	}
	// Bridge i of community pair (c, c+1) leaves through peripheral slot
	// i and arrives at peripheral slot Periphery-1-i; with Periphery >=
	// 2·Bridges the outgoing and incoming slots never collide, so every
	// peripheral node carries at most one bridge.
	for c := 0; c < cfg.Communities; c++ {
		next := (c + 1) % cfg.Communities
		for i := 0; i < cfg.Bridges; i++ {
			u := graph.NodeID(c*cfg.CommunitySize + s.nucleus + i)
			v := graph.NodeID(next*cfg.CommunitySize + s.nucleus + s.periphery - 1 - i)
			if err := yield(u, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// StreamTNG1 adapts a TNG1 binary edge file to an EdgeStream: a first
// full scan counts nodes and edges and verifies the checksum (so a
// corrupt input fails before any output exists), and each Edges call
// replays the file's canonical edge sequence. Combined with StreamToFile
// this is the bounded-memory TNG1→TNG2 conversion path.
func StreamTNG1(path string) (*TNG1Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	n, m, err := graph.ScanBinaryEdges(bufio.NewReaderSize(f, 1<<20),
		func(u, v graph.NodeID) error { return nil })
	f.Close()
	if err != nil {
		return nil, err
	}
	return &TNG1Stream{path: path, n: n, m: m}, nil
}

// TNG1Stream replays a (pre-verified) TNG1 file's edges.
type TNG1Stream struct {
	path string
	n    int
	m    int64
}

// NumNodes implements EdgeStream.
func (s *TNG1Stream) NumNodes() int { return s.n }

// NumEdges returns the file's edge count. TNG1 stores each edge once,
// so it is the edge count of the graph the stream builds.
func (s *TNG1Stream) NumEdges() int64 { return s.m }

// Edges implements EdgeStream.
func (s *TNG1Stream) Edges(yield func(u, v graph.NodeID) error) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, _, err = graph.ScanBinaryEdges(bufio.NewReaderSize(f, 1<<20), yield)
	return err
}

// StreamToFile drains es through the bounded-memory CSR writer into a
// TNG2 file at path, spilling sort runs next to the output and removing
// the partial file on any failure. The writer hands the file 64 KiB
// chunks, so it needs no buffer of its own.
func StreamToFile(es EdgeStream, path string) (graph.CSRStats, error) {
	f, err := os.Create(path)
	if err != nil {
		return graph.CSRStats{}, err
	}
	st, err := StreamCSR(es, f, graph.CSRWriterConfig{TempDir: filepath.Dir(path)})
	if err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		os.Remove(path)
		return graph.CSRStats{}, err
	}
	return st, nil
}
