// Package gen provides seeded random and deterministic graph generators.
//
// The generators stand in for the real social graphs of Table I of the
// paper, which are not redistributable: each dataset in internal/datasets
// is produced by the generator whose social model matches the original
// (preferential attachment and dense-community models for the fast-mixing
// online social networks, community-structured models for the slow-mixing
// interaction and co-authorship graphs). All generators are deterministic
// given their seed and always return simple graphs.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/trustnet/trustnet/internal/graph"
)

// Cycle returns the cycle graph C_n (n >= 3).
func Cycle(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("gen: cycle needs n >= 3, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdgeSafe(graph.NodeID(i), graph.NodeID((i+1)%n))
	}
	return b.Build(), nil
}

// Path returns the path graph P_n (n >= 1).
func Path(n int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: path needs n >= 1, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdgeSafe(graph.NodeID(i), graph.NodeID(i+1))
	}
	return b.Build(), nil
}

// Complete returns the complete graph K_n (n >= 1).
func Complete(n int) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: complete graph needs n >= 1, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdgeSafe(graph.NodeID(i), graph.NodeID(j))
		}
	}
	return b.Build(), nil
}

// Star returns the star graph with one hub (node 0) and n-1 leaves.
func Star(n int) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: star needs n >= 2, got %d", n)
	}
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdgeSafe(0, graph.NodeID(i))
	}
	return b.Build(), nil
}

// Grid returns the rows×cols 2-D lattice.
func Grid(rows, cols int) (*graph.Graph, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("gen: grid needs positive dimensions, got %dx%d", rows, cols)
	}
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) graph.NodeID { return graph.NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdgeSafe(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdgeSafe(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build(), nil
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d nodes, a
// canonical good expander used to sanity-check the expansion code.
func Hypercube(d int) (*graph.Graph, error) {
	if d < 1 || d > 24 {
		return nil, fmt.Errorf("gen: hypercube dimension must be in [1,24], got %d", d)
	}
	n := 1 << d
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			u := v ^ (1 << bit)
			if v < u {
				b.AddEdgeSafe(graph.NodeID(v), graph.NodeID(u))
			}
		}
	}
	return b.Build(), nil
}

// GNM returns a uniform random graph with exactly m distinct edges over n
// nodes (Erdős–Rényi G(n,m)).
func GNM(n int, m int64, seed int64) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: gnm needs n >= 2, got %d", n)
	}
	maxM := int64(n) * int64(n-1) / 2
	if m < 0 || m > maxM {
		return nil, fmt.Errorf("gen: gnm m=%d out of range [0,%d]", m, maxM)
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	seen := make(map[graph.Edge]struct{}, m)
	for int64(len(seen)) < m {
		u := graph.NodeID(rng.Intn(n))
		v := graph.NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v}.Canonical()
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		b.AddEdgeSafe(e.U, e.V)
	}
	return b.Build(), nil
}

// GNP returns an Erdős–Rényi G(n,p) graph, sampling edges with the
// geometric skipping method so generation is O(n + m) rather than O(n²).
func GNP(n int, p float64, seed int64) (*graph.Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("gen: gnp needs n >= 1, got %d", n)
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("gen: gnp p=%v out of [0,1]", p)
	}
	b := graph.NewBuilder(n)
	if p == 0 {
		return b.Build(), nil
	}
	rng := rand.New(rand.NewSource(seed))
	if p == 1 {
		return Complete(n)
	}
	logQ := math.Log(1 - p)
	// Enumerate pairs (v, w) with w < v in row-major order, skipping
	// geometrically many pairs between successive edges.
	v, w := 1, -1
	for v < n {
		// The conversion keeps rng.Float64's scaling multiply out of a
		// fused multiply-subtract (see noisy in stream.go).
		skip := int(math.Log(1-float64(rng.Float64()))/logQ) + 1
		w += skip
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			b.AddEdgeSafe(graph.NodeID(v), graph.NodeID(w))
		}
	}
	return b.Build(), nil
}

// BarabasiAlbert grows a preferential-attachment graph: starting from a
// small clique, each new node attaches to `attach` existing nodes chosen
// proportionally to degree. This is the stand-in model for the fast-mixing
// online social networks of Table I (Wiki-vote-, Epinion-, Slashdot-like):
// heavy-tailed degrees, a dense well-connected core, small diameter.
func BarabasiAlbert(n, attach int, seed int64) (*graph.Graph, error) {
	es, err := StreamBA(n, attach, seed)
	if err != nil {
		return nil, err
	}
	return Build(es)
}

// WattsStrogatz builds a small-world ring lattice over n nodes where each
// node connects to its k nearest neighbors (k even), then rewires each
// edge's far endpoint with probability beta. Low beta yields slow-mixing,
// highly clustered graphs; high beta approaches a random graph.
func WattsStrogatz(n, k int, beta float64, seed int64) (*graph.Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("gen: watts-strogatz needs even k >= 2, got %d", k)
	}
	if n <= k {
		return nil, fmt.Errorf("gen: watts-strogatz needs n > k, got n=%d k=%d", n, k)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("gen: watts-strogatz beta=%v out of [0,1]", beta)
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for off := 1; off <= k/2; off++ {
			u := (v + off) % n
			if rng.Float64() < beta {
				// Rewire to a uniform random non-self target. Duplicates
				// are merged by the builder, slightly lowering the edge
				// count, exactly as in the standard WS construction.
				u = rng.Intn(n)
				for u == v {
					u = rng.Intn(n)
				}
			}
			b.AddEdgeSafe(graph.NodeID(v), graph.NodeID(u))
		}
	}
	return b.Build(), nil
}

// PowerLawConfiguration samples a degree sequence d_i ∝ i^(-1/(gamma-1))
// via the inverse-CDF transform truncated at maxDeg, then wires a simple
// graph with the erased configuration model (self loops and multi-edges
// dropped). Useful for matching a target degree exponent without the
// correlations preferential attachment introduces.
func PowerLawConfiguration(n int, gamma float64, minDeg, maxDeg int, seed int64) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: configuration model needs n >= 2, got %d", n)
	}
	if gamma <= 1 {
		return nil, fmt.Errorf("gen: power-law exponent must exceed 1, got %v", gamma)
	}
	if minDeg < 1 || maxDeg < minDeg || maxDeg >= n {
		return nil, fmt.Errorf("gen: degree bounds [%d,%d] invalid for n=%d", minDeg, maxDeg, n)
	}
	rng := rand.New(rand.NewSource(seed))
	degrees := make([]int, n)
	stubCount := 0
	for i := range degrees {
		// Inverse CDF of P(D >= d) ∝ d^{1-gamma} on [minDeg, maxDeg].
		u := rng.Float64()
		lo := math.Pow(float64(minDeg), 1-gamma)
		hi := math.Pow(float64(maxDeg), 1-gamma)
		d := int(math.Pow(lo+float64(u*(hi-lo)), 1/(1-gamma)))
		if d < minDeg {
			d = minDeg
		}
		if d > maxDeg {
			d = maxDeg
		}
		degrees[i] = d
		stubCount += d
	}
	if stubCount%2 == 1 {
		degrees[0]++
		stubCount++
	}
	stubs := make([]graph.NodeID, 0, stubCount)
	for v, d := range degrees {
		for i := 0; i < d; i++ {
			stubs = append(stubs, graph.NodeID(v))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	b := graph.NewBuilder(n)
	for i := 0; i+1 < len(stubs); i += 2 {
		b.AddEdgeSafe(stubs[i], stubs[i+1]) // erased model: loops dropped, dups merged
	}
	return b.Build(), nil
}

// RMATConfig parameterizes the recursive-matrix (R-MAT / stochastic
// Kronecker) generator of Chakrabarti et al., the model behind the
// "graphs over time" observations the paper cites ([8]): each edge drops
// into one of four adjacency-matrix quadrants with probabilities
// (A, B, C, D), recursively, producing skewed degrees and a hierarchical
// self-similar community structure.
type RMATConfig struct {
	// Scale is log2 of the node count (n = 2^Scale).
	Scale int
	// Edges is the number of edge-drop attempts (self loops and
	// duplicates merge, so the result has at most this many edges).
	Edges int64
	// A, B, C are the quadrant probabilities (D = 1-A-B-C). The classic
	// skewed setting is A=0.57, B=0.19, C=0.19.
	A, B, C float64
	// Noise perturbs the quadrant probabilities by ±Noise per level to
	// avoid lattice artifacts; 0.1 is typical.
	Noise float64
	// Seed makes generation deterministic.
	Seed int64
}

// RMAT samples a recursive-matrix graph.
func RMAT(cfg RMATConfig) (*graph.Graph, error) {
	es, err := StreamRMAT(cfg)
	if err != nil {
		return nil, err
	}
	return Build(es)
}

// SBMConfig parameterizes a stochastic block model.
type SBMConfig struct {
	// BlockSizes gives the number of nodes in each community.
	BlockSizes []int
	// PIn is the within-community edge probability.
	PIn float64
	// POut is the cross-community edge probability.
	POut float64
	// Seed makes generation deterministic.
	Seed int64
}

// SBM samples a stochastic block model. With PIn >> POut the result is a
// tight-knit multi-community graph — the slow-mixing regime the paper
// associates with strict-trust social networks (§II, discussion of [17]).
// The returned labels give each node's community.
func SBM(cfg SBMConfig) (*graph.Graph, []int, error) {
	es, err := StreamSBM(cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := Build(es)
	if err != nil {
		return nil, nil, err
	}
	labels := make([]int, 0, g.NumNodes())
	for i, s := range cfg.BlockSizes {
		for j := 0; j < s; j++ {
			labels = append(labels, i)
		}
	}
	return g, labels, nil
}

// pairFromIndex maps a linear index in [0, n(n-1)/2) to the idx-th pair
// (u, v) with u < v in lexicographic order over an n-node block.
func pairFromIndex(idx int64, n int) (int, int) {
	u := 0
	remaining := idx
	for {
		rowLen := int64(n - 1 - u)
		if remaining < rowLen {
			return u, u + 1 + int(remaining)
		}
		remaining -= rowLen
		u++
	}
}

// ClusteredPAConfig parameterizes ClusteredPA.
type ClusteredPAConfig struct {
	// Communities is the number of communities.
	Communities int
	// CommunitySize is the total number of nodes per community, including
	// its peripheral nodes.
	CommunitySize int
	// Attach is the preferential-attachment parameter inside a community.
	Attach int
	// Bridges is the number of inter-community edges added per adjacent
	// community pair on a ring of communities (pair (i, i+1 mod C)).
	Bridges int
	// Periphery is the number of low-degree peripheral nodes per
	// community. Each peripheral node attaches to exactly one random
	// nucleus member and carries at most one bridge edge, so its degree
	// never reaches the nucleus attach parameter — this is what makes the
	// high-k cores split per community, mirroring the weak-tie structure
	// of real co-authorship graphs. Must be at least 2·Bridges; defaults
	// to max(2·Bridges, CommunitySize/5) when 0.
	Periphery int
	// Seed makes generation deterministic.
	Seed int64
}

// ClusteredPA builds the slow-mixing co-authorship stand-in: each community
// is a Barabási–Albert nucleus (dense local core) ringed by low-degree
// peripheral nodes, and adjacent communities on a ring are joined by bridge
// edges between peripheral nodes. Mixing is bottlenecked by the bridges,
// reproducing the tight-knit community structure the paper observes in the
// Physics co-authorship graphs; because the bridges run through weak ties,
// the high-k cores split into one component per community, reproducing the
// multi-core structure of Figure 5 (f)–(j).
func ClusteredPA(cfg ClusteredPAConfig) (*graph.Graph, []int, error) {
	es, err := StreamClusteredPA(cfg)
	if err != nil {
		return nil, nil, err
	}
	g, err := Build(es)
	if err != nil {
		return nil, nil, err
	}
	labels := make([]int, g.NumNodes())
	for v := range labels {
		labels[v] = v / cfg.CommunitySize
	}
	return g, labels, nil
}
